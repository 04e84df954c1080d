/**
 * @file
 * The full cache hierarchy: per-core L1s, per-VD inclusive L2s, a
 * distributed non-inclusive LLC with a directory, and the glue to the
 * DRAM working memory.
 *
 * All coherence transactions are modelled as atomic state transitions
 * with additive latency charging (zsim-style). The baseline protocol
 * is directory MESI; when a VersionCtrl is installed the hierarchy
 * additionally runs NVOverlay's version access protocol
 * (paper Sec. IV-A):
 *
 *  - every line carries an OID (epoch of last write);
 *  - a store hitting a dirty line from an earlier epoch performs a
 *    *store-eviction*: the immutable version is sealed (its payload
 *    captured) and pushed to the L2, then the store completes in
 *    place under the current epoch (Fig. 4);
 *  - an L1 PUTX landing on an older dirty L2 version first evicts
 *    that version to LLC + OMC (Fig. 4c);
 *  - external downgrades write the newest version back to LLC + OMC
 *    and old sealed L2 versions to the OMC only (Fig. 5, optimization
 *    1 of Sec. IV-A3);
 *  - external invalidations hand the newest dirty version directly to
 *    the requestor cache-to-cache without any OMC write (Fig. 6,
 *    optimization 2);
 *  - every coherence response carries the line OID (RV); the
 *    receiving VD Lamport-advances its epoch when RV is ahead
 *    (Sec. IV-B2);
 *  - a tag-walk scan collects and downgrades all dirty versions older
 *    than the VD's epoch so the walker can drain them to the OMC in
 *    the background (Sec. IV-C).
 */

#ifndef NVO_CACHE_HIERARCHY_HH
#define NVO_CACHE_HIERARCHY_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/l1_cache.hh"
#include "cache/l2_cache.hh"
#include "cache/llc.hh"
#include "cache/noc.hh"
#include "cache/version_ctrl.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/backing_store.hh"
#include "mem/dram_model.hh"
#include "mem/write_tracker.hh"

namespace nvo
{

class Hierarchy
{
  public:
    struct Params
    {
        unsigned numCores = 16;
        unsigned coresPerVd = 2;
        unsigned numLlcSlices = 4;
        L1Cache::Params l1;
        L2Cache::Params l2;
        LlcSlice::Params llc;
        /** Extra latency for a request forwarded to a remote VD. */
        Cycle remoteSnoopLatency = 40;
        /**
         * Optional mesh NoC: when set, slice access and snoop
         * latencies are hop-based (XY routing) instead of the flat
         * constants above; `llc.latency` then only covers the array
         * access (noc traversal charged separately).
         */
        const MeshNoc *noc = nullptr;
        Cycle llcArrayLatency = 10;
    };

    Hierarchy(const Params &params, BackingStore &backing,
              DramModel &dram, RunStats &run_stats);

    /** Install NVOverlay version control (enables the CST protocol). */
    void setVersionCtrl(VersionCtrl *ctrl) { vctrl = ctrl; }

    /** Optional write-history recorder for verification. */
    void setWriteTracker(WriteTracker *tracker) { wtracker = tracker; }

    /** Process a load by @p core. Returns total latency. */
    Cycle load(unsigned core, Addr addr, Cycle now);

    /**
     * Process and commit a store by @p core. @p data/@p size describe
     * the stored bytes (data may be null: a synthetic 8-byte pattern
     * derived from the store seqno is written instead, so content
     * always changes). Returns total latency including any
     * version-protocol stalls.
     */
    Cycle store(unsigned core, Addr addr, const void *data,
                unsigned size, Cycle now);

    /**
     * Atomic tag-walk scan of VD @p vd: collect every dirty version
     * older than the VD's current epoch (L1s and L2), downgrade the
     * lines to clean, and return the collected versions together with
     * min-ver (smallest dirty OID encountered, initialized to the
     * VD's epoch). The caller (the tag walker) drains the collected
     * versions to the OMC over time.
     *
     * The host visits only the L2 slots marked modified (the L2's
     * walk set), in slot order. That is exact: a valid L2 line outside
     * M is clean and unsealed, and no L1 copy of it is dirty in M or
     * carries a newer OID, so visiting it would change nothing
     * (audited). `linesScanned` still counts every valid tag the
     * modelled walker reads.
     */
    struct WalkVersion
    {
        Addr addr;
        EpochWide oid;
        SeqNo seq;
        LineData content;
    };

    struct WalkScan
    {
        EpochWide minVer;
        std::vector<WalkVersion> versions;
        std::uint64_t linesScanned = 0;
    };

    WalkScan tagWalkScan(unsigned vd);

    /**
     * Flush every dirty line in the hierarchy to the memory image and
     * (in versioned mode) to the OMC. Used at clean shutdown and by
     * tests.
     */
    void flushAll(Cycle now);

    /**
     * Verify structural invariants; returns an empty string when all
     * hold, else a description of the first violation. Exercised by
     * property tests after random traffic. Pass @p quiescent = false
     * when called mid-run: a store hit on a writable L1 line commits
     * without consulting stale clean sibling copies, so the
     * L1-tag-vs-L2-tag relation only holds once traffic stops.
     */
    std::string checkInvariants(bool quiescent = true) const;

    /**
     * Invariant sweep (NVO_AUDIT): per-level array audits, the
     * structural checks of checkInvariants(), and the version
     * protocol's epoch rules — dirty OIDs never run ahead of their
     * VD's epoch (Sec. IV-B), sealed versions are strictly older than
     * the current epoch, and (when a WriteTracker is installed)
     * sealed payloads still match the architectural content of their
     * epoch, i.e. sealed versions are immutable (Fig. 4).
     */
    void audit() const;

    // --- Introspection (tests, examples) ---
    unsigned numCores() const { return p.numCores; }
    unsigned numVds() const { return numVds_; }
    unsigned vdOfCore(unsigned core) const { return core / p.coresPerVd; }
    const CacheLine *l1Line(unsigned core, Addr addr) const;
    const CacheLine *l2Line(unsigned vd, Addr addr) const;
    const DirEntry *dirEntry(Addr addr) const;
    L2Cache &l2(unsigned vd) { return *l2s[vd]; }
    L1Cache &l1(unsigned core) { return *l1s[core]; }
    LlcSlice &llcSlice(unsigned i) { return *slices[i]; }
    unsigned numSlices() const
    {
        return static_cast<unsigned>(slices.size());
    }

  private:
    /** Epoch of VD @p vd: the VersionCtrl's, else 0. Baselines keep
     *  their own epoch clock, and nothing reads the tag they would
     *  commit with. */
    EpochWide curEpoch(unsigned vd) const;

    bool versioned() const { return vctrl != nullptr; }

    unsigned sliceOf(Addr line_addr) const;

    /** Read a line's current architectural content. */
    void readCurrent(Addr line_addr, LineData &out) const;

    /** Send a version to the OMC (versioned mode only). */
    Cycle emitVersion(unsigned vd, Addr line_addr, EpochWide oid,
                      SeqNo seq, const LineData *sealed,
                      EvictReason why, Cycle now);

    /**
     * Insert/refresh a line in the LLC slice as part of a write back;
     * may evict an LLC victim to DRAM. Returns DRAM latency charged
     * (usually ignored: write backs are posted).
     */
    void llcInsert(Addr line_addr, EpochWide oid, SeqNo seq, bool dirty,
                   Cycle now);

    /** LLC capacity eviction: dirty victims go to DRAM. */
    void llcEvictVictim(CacheLine &victim, Cycle now);

    /**
     * L2 accepts a version arriving from an L1 (PUTX or
     * store-eviction). Implements the OID<RV old-version eviction
     * rule. @p sealed, when non-null, is the sealed payload moving
     * down. @p to_llc controls whether a displaced old L2 version
     * also goes to the LLC (true for PUTX; false under coherence
     * optimization 1).
     */
    Cycle l2AcceptVersion(unsigned vd, Addr line_addr, EpochWide oid,
                          SeqNo seq, std::unique_ptr<LineData> sealed,
                          EvictReason why, bool to_llc, Cycle now);

    /** Handle an L1 victim (capacity replacement). */
    Cycle handleL1Victim(unsigned core, CacheLine &victim, Cycle now);

    /** Handle an L2 victim (capacity replacement). */
    Cycle handleL2Victim(unsigned vd, CacheLine &victim, Cycle now);

    /** Fill @p addr into L1 of @p core with state @p st. */
    CacheLine *fillL1(unsigned core, Addr addr, CohState st,
                      EpochWide oid, SeqNo seq, bool dirty, Cycle now);

    /** Fill @p addr into the L2 of @p vd (runs victim handling). */
    CacheLine *fillL2(unsigned vd, Addr addr, CohState st, EpochWide oid,
                      SeqNo seq, bool dirty, Cycle now);

    /**
     * Ensure the line is present in VD @p vd's L2 with (at least) the
     * requested permission, fetching through the directory when
     * needed. Returns the response version (RV) and accumulates
     * latency into @p lat.
     */
    CacheLine *fetchIntoL2(unsigned vd, Addr addr, bool exclusive,
                           Cycle now, Cycle &lat);

    struct InvResult
    {
        bool c2cDirty = false;   ///< newest dirty version transferred
        EpochWide oid = 0;
        SeqNo seq = 0;
    };

    /** External invalidation of @p addr in VD @p vd (DIR-GETX). */
    InvResult invalidateVd(unsigned vd, Addr addr, Cycle now);

    /** External downgrade of @p addr in VD @p vd (DIR-GETS). */
    EpochWide downgradeVd(unsigned vd, Addr addr, Cycle now);

    /**
     * Pull a dirty L1 version down into the L2 (intra-VD PUTX used by
     * downgrades and sibling sharing). The L1 line transitions to
     * @p new_l1_state.
     */
    Cycle pullL1Version(unsigned vd, unsigned core, CacheLine *l1_line,
                        CohState new_l1_state, EvictReason why,
                        Cycle now);

    /** Lamport observation helper (no-op for baselines). */
    Cycle observeRv(unsigned vd, EpochWide rv, Cycle now);

    Params p;
    unsigned numVds_;
    /** NVM back-pressure accumulated by the current operation's
     *  version emissions (charged to the requesting core). */
    Cycle opStall = 0;
    BackingStore &backing;
    DramModel &dram;
    RunStats &stats;
    VersionCtrl *vctrl = nullptr;
    WriteTracker *wtracker = nullptr;
    SeqNo seqCounter = 0;

    std::vector<std::unique_ptr<L1Cache>> l1s;
    std::vector<std::unique_ptr<L2Cache>> l2s;
    std::vector<std::unique_ptr<LlcSlice>> slices;
};

} // namespace nvo

#endif // NVO_CACHE_HIERARCHY_HH
