/**
 * @file
 * Run statistics: hot counters as plain fields, plus a bandwidth time
 * series. Every experiment harness consumes a RunStats.
 */

#ifndef NVO_COMMON_STATS_HH
#define NVO_COMMON_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace nvo
{

/** Where NVM write bytes came from; drives write-amplification plots. */
enum class NvmWriteKind : unsigned
{
    Data = 0,    ///< snapshot / working data lines
    Log,         ///< undo/redo log entries (logging schemes)
    Mapping,     ///< persistent mapping-table metadata (shadow schemes)
    Context,     ///< per-core context dumps at epoch ends
    NumKinds
};

const char *toString(NvmWriteKind kind);

/** Why a line left a cache; drives the Fig. 15 decomposition. */
enum class EvictReason : unsigned
{
    Capacity = 0,   ///< replacement on a fill
    Coherence,      ///< external invalidation / downgrade (incl. logs)
    TagWalk,        ///< background tag walker write back
    StoreEvict,     ///< NVOverlay store-eviction of an immutable version
    EpochFlush,     ///< synchronous flush at an epoch boundary
    NumReasons
};

const char *toString(EvictReason reason);

/**
 * Bytes binned by cycle bucket; used for the Fig. 17 NVM bandwidth
 * time series. Buckets extend on demand.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(Cycle bucket_cycles = 100000);

    void add(Cycle when, std::uint64_t bytes);
    Cycle bucketCycles() const { return width; }
    const std::vector<std::uint64_t> &buckets() const { return bins; }

    /** Bandwidth in GB/s for bucket @p i at @p cycles_per_sec. */
    double gbPerSec(std::size_t i, double cycles_per_sec) const;

    /** Peak bucket value in bytes. */
    std::uint64_t peakBytes() const;

    /** Mean bytes over non-empty prefix [0, last non-zero bucket]. */
    double meanBytes() const;

  private:
    Cycle width;
    std::vector<std::uint64_t> bins;
};

/** All statistics produced by one simulation run. */
struct RunStats
{
    // Execution.
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t refs = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t barrierStallCycles = 0;

    // Cache behaviour.
    std::uint64_t l1Hits = 0, l1Misses = 0;
    std::uint64_t l2Hits = 0, l2Misses = 0;
    std::uint64_t llcHits = 0, llcMisses = 0;

    // Epochs.
    std::uint64_t epochAdvances = 0;        ///< store-count triggered
    std::uint64_t lamportAdvances = 0;      ///< coherence-driven
    std::uint64_t contextDumps = 0;

    // NVM / DRAM traffic.
    std::array<std::uint64_t,
               static_cast<std::size_t>(NvmWriteKind::NumKinds)>
        nvmWriteBytes{};
    std::uint64_t nvmWriteOps = 0;
    std::uint64_t nvmReadBytes = 0;
    std::uint64_t dramReadBytes = 0;
    std::uint64_t dramWriteBytes = 0;

    // Evictions by reason (counts of line write backs).
    std::array<std::uint64_t,
               static_cast<std::size_t>(EvictReason::NumReasons)>
        evictReason{};

    // NVOverlay backend.
    std::uint64_t omcBufferHits = 0;
    std::uint64_t omcBufferMisses = 0;
    std::uint64_t masterTableBytes = 0;
    std::uint64_t masterMappedLines = 0;
    std::uint64_t epochTableBytes = 0;
    std::uint64_t poolPagesInUse = 0;
    std::uint64_t gcCompactions = 0;
    std::uint64_t gcBytesCopied = 0;
    std::uint64_t tagWalkLinesScanned = 0;
    std::uint64_t tagWalkWriteBacks = 0;

    /** Snapshot replication (src/repl); all zero when disabled. */
    struct ReplStats
    {
        std::uint64_t framesSent = 0;      ///< first transmissions
        std::uint64_t framesRetried = 0;
        std::uint64_t framesDropped = 0;
        std::uint64_t framesCorrupted = 0;
        std::uint64_t framesAcked = 0;
        std::uint64_t framesDeduped = 0;   ///< duplicate deliveries
        std::uint64_t wireBytes = 0;       ///< incl. retransmissions
        std::uint64_t deltaBytes = 0;      ///< payload bytes shipped
        std::uint64_t epochsShipped = 0;
        std::uint64_t epochsApplied = 0;
        std::uint64_t lateShipped = 0;
        std::uint64_t decodeResyncs = 0;
        std::uint64_t decodeCrcErrors = 0;
        std::uint64_t backpressureStalls = 0;
        std::uint64_t cursorPersists = 0;
        std::uint64_t resumes = 0;
        std::uint64_t reshippedEpochs = 0;
        std::uint64_t sendQueuePeak = 0;
        std::uint64_t appliedRecEpoch = 0; ///< standby's rec-epoch
        std::uint64_t cursorEpoch = 0;     ///< durable cursor at end
    } repl;

    /** NVM write bandwidth series (all kinds combined). */
    TimeSeries nvmBandwidth{100000};

    /** Cold extension counters keyed by name. */
    std::map<std::string, std::uint64_t> extra;

    void addNvmWrite(NvmWriteKind kind, std::uint64_t bytes, Cycle when);

    std::uint64_t totalNvmWriteBytes() const;
    std::uint64_t nvmDataBytes() const;

    /**
     * Write amplification relative to @p base_bytes of application
     * dirty data; returns 0 when base is 0.
     */
    double writeAmp(std::uint64_t base_bytes) const;

    void print(std::ostream &os, const std::string &label) const;
};

} // namespace nvo

#endif // NVO_COMMON_STATS_HH
