/**
 * @file
 * Timing model for the NVDIMM subsystem (Table II: 16 banks per DIMM
 * at 133 ns write latency, behind 4 memory controllers).
 *
 * Two concerns are modelled separately:
 *
 *  - *Durability latency*: each write occupies an address-interleaved
 *    bank; `Issue::completion` is when the write is durable.
 *    Synchronous issuers (persist barriers) wait for it.
 *  - *Bandwidth back-pressure*: all writes drain through a shared
 *    write-back DRAM buffer in front of the device (the paper's
 *    methodology, Sec. VI-B). Device work accumulates in `busyUntil`;
 *    an issuer stalls only when the backlog exceeds the buffer
 *    window, i.e., under *sustained* oversubscription — which is what
 *    slows PiCL-L2 and the ART runs, while ordinary bursts are
 *    absorbed (Fig. 17).
 */

#ifndef NVO_MEM_NVM_MODEL_HH
#define NVO_MEM_NVM_MODEL_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace nvo
{

class PersistDomain;

class NvmModel
{
  public:
    struct Params
    {
        /** Total banks across all NVDIMM controllers (Table II:
         *  16 banks per DIMM x 4 memory controllers). */
        unsigned banks = 64;
        /** Bank occupancy per 64 B write (cycles @ 3 GHz; 133 ns). */
        Cycle writeOccupancy = 400;
        /** Additional device read latency (cycles). */
        Cycle readLatency = 510;   // ~170 ns
        /** Write-back DRAM buffer in front of the device. */
        std::uint64_t bufferBytes = 32ull * 1024 * 1024;
        /** Endurance model: count per-region write traffic so wear
         *  skew (max/mean region writes) is observable. Off by
         *  default — the counters are the only effect, but keeping
         *  the flag off leaves write() at one extra branch. */
        bool wearEnabled = false;
        /** Wear-accounting region size in bytes. */
        std::uint64_t wearRegionBytes = 4096;
    };

    NvmModel(const Params &params, RunStats *run_stats);
    ~NvmModel();

    struct Issue
    {
        Cycle stall;        ///< back-pressure wait to enqueue
        Cycle completion;   ///< cycle at which the write is durable
    };

    /**
     * Issue a write of @p bytes starting at @p addr at time @p now.
     * Background issuers ignore `completion`; synchronous issuers
     * (persist barriers) wait for it. `stall` is nonzero only when
     * the drain backlog exceeds the buffer window.
     */
    Issue write(Addr addr, std::uint32_t bytes, Cycle now,
                NvmWriteKind kind);

    /** Read latency for @p bytes at @p addr issued at @p now. */
    Cycle read(Addr addr, std::uint32_t bytes, Cycle now);

    /** Cycle at which all issued writes are durable. */
    Cycle drainCompletion() const;

    /** Aggregate write bandwidth in bytes per cycle. */
    double bytesPerCycle() const;

    /**
     * Export wear-leveling statistics into `stats.extra` as
     * `nvm_wear_*` keys (region count, max and mean line writes per
     * region, and the max/mean skew ratio x1000). No-op when the
     * wear model is off, so existing stats output is byte-unchanged.
     */
    void exportWear(RunStats &run_stats) const;

    /**
     * The persist boundary: durable structures stage undo records and
     * fence through this domain (see mem/persist_domain.hh).
     */
    PersistDomain &persist();
    const PersistDomain &persist() const { return *persist_; }

  private:
    unsigned bankOf(Addr addr) const;

    Params p;
    RunStats *stats;
    std::vector<Cycle> bankFree;
    /** Aggregate device-drain clock (bandwidth model). */
    Cycle busyUntil = 0;
    /** Monotonic device-side view of time (max over issuers). */
    Cycle deviceNow = 0;
    /** Backlog the buffer can hold, expressed in drain cycles. */
    Cycle windowCycles;
    /** Per-region line-write counts (ordered so the export and any
     *  iteration stay deterministic). Keyed by addr/wearRegionBytes. */
    std::map<std::uint64_t, std::uint64_t> wear_;
    std::unique_ptr<PersistDomain> persist_;
};

} // namespace nvo

#endif // NVO_MEM_NVM_MODEL_HH
