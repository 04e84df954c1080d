/**
 * @file
 * Multi-snapshot NVM Mapping backend (paper Sec. V).
 *
 * MnmBackend models the set of Overlay Memory Controllers. The NVM
 * address space is partitioned across OMCs (line-interleaved); each
 * partition owns a page pool, its per-epoch mapping tables, a master
 * table shard, and optionally a battery-backed write buffer. One OMC
 * acts as the master: it maintains the per-VD min-ver array, computes
 * the recoverable epoch, persists `rec-epoch`, and drives table
 * merging when the recoverable epoch advances.
 *
 * A partition finds an epoch's table by index arithmetic (TableStore:
 * a deque offset by its oldest epoch), and a version's page entry
 * carries its sub-page header's slab slot, so the insert and merge
 * paths cost the same however many epochs the run has retained.
 */

#ifndef NVO_NVOVERLAY_OMC_HH
#define NVO_NVOVERLAY_OMC_HH

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_line_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/backing_store.hh"
#include "mem/nvm_model.hh"
#include "nvoverlay/epoch_table.hh"
#include "nvoverlay/master_table.hh"
#include "nvoverlay/omc_buffer.hh"
#include "nvoverlay/page_pool.hh"
#include "obs/ledger.hh"
#include "tenant/asid.hh"

namespace nvo
{

namespace tenant
{
class TenantManager;
}

/**
 * Observer for epoch-delta replication (src/repl). The backend calls
 * onEpochsRecoverable when reportMinVer advances the recoverable
 * epoch — *before* mergeUpTo retires the per-epoch tables, so the
 * sink can still drain each epoch's versions — and onLateVersion when
 * a version lands behind the recoverable epoch via the late-merge
 * path (the already-shipped epoch needs an amendment). crashReset
 * calls onCrash: the stream's volatile state dies with the primary's.
 */
class ReplSink
{
  public:
    virtual ~ReplSink() = default;
    virtual void onEpochsRecoverable(EpochWide from, EpochWide upto,
                                     Cycle now) = 0;
    virtual void onLateVersion(Addr line_addr, EpochWide oid,
                               const LineData &content, Cycle now) = 0;
    virtual void onCrash() = 0;
};

class MnmBackend
{
  public:
    struct Params
    {
        unsigned numOmcs = 4;
        unsigned numVds = 8;
        Addr poolBase = 1ull << 40;
        std::uint64_t poolBytesPerOmc = 64ull * 1024 * 1024;
        EpochTable::Params table;
        bool useBuffer = false;
        OmcBuffer::Params buffer;
        /**
         * Storage pressure (paper Sec. V-D): while the pool pages in
         * use, summed over partitions, are at least this fraction of
         * the pool's pages, each rec-epoch advance runs one
         * compaction pass; an exhausted partition also compacts
         * before it extends. >= 1.0 disables compaction (the pool
         * auto-extends instead, i.e., the OS keeps granting pages).
         */
        double compactionThreshold = 1.0;
        std::uint64_t extendPages = 16384;
        /** Free per-epoch tables once merged (disables time travel
         *  into merged epochs unless the master still maps them).
         *  The GC refcounts go with the tables, so compaction never
         *  reclaims the dropped epochs' sub-pages. */
        bool dropMergedTables = false;
        /** Transient NVM write errors tolerated per device write
         *  before the drain path gives up (fault injection). */
        unsigned maxDeviceRetries = 8;
        /**
         * TEST ONLY: advance the durable rec-epoch *without* the
         * persist fence ordering merge writes before the rec-epoch
         * word — a classic missing-barrier durability bug. Crash
         * campaigns must detect the resulting recovery mismatch.
         */
        bool testSkipRecBarrier = false;
        /**
         * TEST ONLY: silently skip every Nth version when merging a
         * table into the master — a drop-the-merge protocol bug that
         * leaves versions certified recoverable but unreachable. The
         * provenance ledger must report them as leaks (and NVO_AUDIT
         * builds trip the merge-completeness sweep).
         */
        bool testDropMerge = false;
    };

    MnmBackend(const Params &params, NvmModel &nvm_model,
               RunStats &run_stats);

    /** OMC partition serving @p line_addr. */
    unsigned omcOf(Addr line_addr) const;

    /**
     * A version arrived from the CST frontend. Inserts it into the
     * partition's per-epoch table (writing the content into the NVM
     * pool) and issues/absorbs the device write; @p why names the
     * lifecycle cause that pushed the version out of the hierarchy
     * (provenance ledger + write-amplification attribution). Returns
     * issuer stall cycles from NVM back-pressure.
     */
    Cycle insertVersion(Addr line_addr, EpochWide oid, SeqNo seq,
                        const LineData &content, Cycle now,
                        EvictReason why = EvictReason::EpochFlush);

    /**
     * A tag walker finished draining: VD @p vd certifies that all its
     * dirty versions older than @p min_ver are persistent. May
     * advance the recoverable epoch and merge tables into the master;
     * an advance under storage pressure then runs one compaction
     * pass (Params::compactionThreshold).
     */
    void reportMinVer(unsigned vd, EpochWide min_ver, Cycle now);

    /** Current recoverable epoch (0 = nothing recoverable yet). */
    EpochWide recEpoch() const { return recEpoch_; }

    /** Flush all buffered writes to the device (clean shutdown). */
    void drainBuffers(Cycle now);

    /** Stop buffering new versions (used around finalize). */
    void setBufferBypass(bool bypass) { bufferBypass = bypass; }

    /** Attach (or detach with nullptr) the replication sink. */
    void setReplSink(ReplSink *sink) { replSink = sink; }

    /** Attach the per-tenant quota/QoS/fairness policy (nullptr =
     *  untenanted operation, zero policy overhead). */
    void setTenantManager(tenant::TenantManager *tm) { tm_ = tm; }

    /** Pool lines held by tenant @p asid, summed across partitions. */
    std::uint64_t poolLinesOf(tenant::Asid asid) const;

    /** Clean shutdown: drain buffers and flush pending metadata. */
    Cycle finalize(Cycle now);

    /** Run one compaction pass on every partition (paper Sec. V-D):
     *  reclaim the oldest merged epochs whose versions are all stale,
     *  then copy the next one's live versions forward into
     *  rec-epoch's table and reclaim it. */
    void compact(Cycle now);

    /**
     * Simulated power failure, the only one: discard all volatile
     * state (buffered pendings, per-epoch DRAM tables, unflushed
     * metadata), truncate the persist domain's in-flight suffix back
     * to the durable prefix, rewind rec-epoch to the last fenced
     * value, and rebuild the tables from the surviving NVM image
     * (paper Sec. V-E). Disarmed, nothing is staged, so nothing
     * durable is lost and only the tables' origin changes. An
     * attached ReplSink loses its volatile state too (onCrash).
     */
    void crashReset();

    /**
     * Newest version epoch fully processed for @p line_addr, or 0.
     * Campaign bookkeeping, recorded only while the persist domain is
     * armed: a crash may legitimately lose versions the frontend
     * committed but never handed to the backend (the late-merge
     * window), and verification needs to tell those from real
     * durability bugs.
     */
    EpochWide ackedEpoch(Addr line_addr) const;

    // --- Persistent-state reads (recovery, time travel) ---

    /** Read the current consistent image of @p line_addr. */
    bool readMaster(Addr line_addr, LineData &out) const;

    /** Visit every master-mapped line across partitions. */
    void forEachMasterEntry(
        const std::function<void(Addr, const MasterTable::Entry &)>
            &fn) const;

    /**
     * Time-travel read: the snapshot value of @p line_addr at epoch
     * @p e — the version from the largest epoch E' <= e that mapped
     * the address (paper Sec. V-E). Returns the found epoch through
     * @p found_epoch when non-null.
     */
    bool readSnapshot(Addr line_addr, EpochWide e, LineData &out,
                      EpochWide *found_epoch = nullptr) const;

    /** Refresh the RunStats aggregates (table sizes, pool usage). */
    void updateStats();

    /**
     * Invariant sweep (NVO_AUDIT), paper Sec. V: rec-epoch equals
     * min(min-vers) - 1 once every VD certified something; every
     * version of a merged epoch (table epoch <= rec-epoch) is
     * reachable through the master, which never regresses to an older
     * epoch; master entries resolve into live, allocated pool
     * sub-pages and never map past the recoverable epoch; buffered
     * pending writes still resolve through their epoch tables. Also
     * recurses into the per-part pool, master, table, and buffer
     * audits and the acked table's.
     */
    void audit() const;

    // --- Introspection (tests) ---
    const MasterTable &master(unsigned omc) const;
    PagePool &pool(unsigned omc);
    EpochTable *epochTable(unsigned omc, EpochWide e);
    unsigned numOmcs() const { return static_cast<unsigned>(parts.size()); }
    EpochWide minVerOf(unsigned vd) const { return minVers[vd]; }
    std::uint64_t mergesDone() const { return mergeCount; }

    std::uint64_t masterNodeBytesTotal() const;
    std::uint64_t masterMappedLinesTotal() const;
    std::uint64_t epochTableBytesTotal() const;
    std::uint64_t poolPagesInUseTotal() const;
    std::uint64_t poolPagesTotal() const;

  private:
    /**
     * One partition's per-epoch tables, indexed by epoch: slot i holds
     * the table of epoch first() + i, null where the partition saw no
     * version or its table was dropped. Both end slots are non-null,
     * so lookup, insert and erase are index arithmetic. A table below
     * the front (a late version re-creating a dropped epoch's) grows
     * the store at the front.
     */
    class TableStore
    {
      public:
        /** Epoch @p e's table, or nullptr. */
        EpochTable *
        find(EpochWide e) const
        {
            return e >= front && e - front < slots.size()
                       ? slots[e - front].get()
                       : nullptr;
        }
        /** Store @p table (whose epoch has none) and return it. */
        EpochTable &insert(std::unique_ptr<EpochTable> table);
        /** Drop epoch @p e's table, which must exist. */
        void erase(EpochWide e);
        void clear() { slots.clear(); }
        /** The store spans epochs [first(), end()). */
        EpochWide first() const { return front; }
        EpochWide end() const { return front + slots.size(); }

      private:
        std::deque<std::unique_ptr<EpochTable>> slots;
        EpochWide front = 0;
    };

    struct Part
    {
        std::unique_ptr<PagePool> pool;
        std::unique_ptr<MasterTable> master;
        /** Running tableBytes() sum of `tables`: each table adds its
         *  footprint changes here (declared before `tables`, so it
         *  outlives the tables that subtract themselves on
         *  destruction). */
        std::uint64_t tableBytes = 0;
        TableStore tables;
        std::unique_ptr<OmcBuffer> buffer;
        std::uint64_t pendingMetaBytes = 0;
        Addr metaCursor = 0;
    };

    EpochTable &getTable(Part &part, EpochWide e);

    /** crashReset's second half: rebuild the per-epoch tables from
     *  the persistent, self-describing sub-page headers and re-derive
     *  the GC refcounts from the master table. */
    void rebuildTables();

    /** Issue a 64 B version write to the device, attributed to the
     *  lifecycle cause that produced it and to the tenant whose
     *  tagged line produced it. */
    Cycle deviceWrite(Addr nvm_addr, Cycle now, obs::LedgerCause cause,
                      tenant::Asid asid);

    /** Write a pending buffered version out to the device. */
    Cycle flushPending(Part &part, const OmcBuffer::Pending &pending,
                       Cycle now);

    /** Merge all tables in (from, upto] into the master. */
    void mergeUpTo(EpochWide from, EpochWide upto, Cycle now);

    /**
     * The one write path into a per-epoch table: insert @p content as
     * @p table's version of @p line_addr, then issue the traffic the
     * insert reports — relocation copies in slot order, then the data
     * write unless @p buffered (the OMC buffer defers it) — queue its
     * header metadata, and, when it grew a page of a table already
     * merged into the master, re-point the master at the moved
     * versions. @p cause names the data write; relocations count as
     * SubpageReloc, except that a CompactionCopy pays for both and
     * for gcBytesCopied. Device-write stalls add to @p stall. Returns
     * the insert: the version's NVM slot and page entry, or an
     * invalidAddr slot, having written nothing, when the pool is
     * exhausted.
     */
    EpochTable::Inserted tableInsert(Part &part, EpochTable &table,
                                     Addr line_addr, SeqNo seq,
                                     const LineData &content,
                                     obs::LedgerCause cause,
                                     bool buffered, Cycle now,
                                     Cycle &stall);

    /** Map @p line_addr to @p nvm_addr, epoch @p e's version, in the
     *  master (journaled by the master while the persist domain is
     *  armed) and queue the persists it took. @p pe, when non-null,
     *  is the page entry holding that version: the mapping takes one
     *  GC reference on it. Returns the replaced entry, if any. */
    std::optional<MasterTable::Entry>
    masterInsert(Part &part, Addr line_addr, Addr nvm_addr,
                 EpochWide e, EpochTable::PageEntry *pe);

    /** Unreference a replaced master entry (GC refcount); records the
     *  superseded version's drop in the provenance ledger. */
    void unref(unsigned oidx, Part &part, Addr line_addr,
               const MasterTable::Entry &old_entry, Cycle now);

    /** Re-point the master entries that map @p pe's versions at
     *  @p table's epoch after a grow() moved them to a new sub-page
     *  and freed the old one (tableInsert's follow; the mappings
     *  keep their GC references). */
    void remapRelocated(Part &part, const EpochTable &table,
                        const EpochTable::PageEntry &pe);

    /** Reclaim one sub-page's NVM storage (header + lines). The only
     *  sanctioned drop site; every version it buries was already
     *  terminated in the ledger (unref / stale arrival / move). */
    void reclaimSubPage(Part &part, EpochTable::PageEntry &pe);

    /** Flush accumulated metadata bytes as 64 B device writes. */
    void flushMeta(Part &part, Cycle now);

    /** Persist the rec-epoch word. */
    void persistRecEpoch(Cycle now);

    Params p;
    NvmModel &nvm;
    RunStats &stats;
    /** Hot-path telemetry (obs/registry.hh): insert stall cycles,
     *  versions merged per retired table, buffer occupancy after each
     *  buffered insert. */
    obs::HistMetric *hInsertStall_ = nullptr;
    obs::HistMetric *hMergeRun_ = nullptr;
    obs::HistMetric *hBufOcc_ = nullptr;
    std::vector<Part> parts;
    std::vector<EpochWide> minVers;
    EpochWide recEpoch_ = 0;
    /** Rec-epoch whose persist fence completed (crash target). */
    EpochWide durableRecEpoch_ = 0;
    ReplSink *replSink = nullptr;
    tenant::TenantManager *tm_ = nullptr;
    bool bufferBypass = false;
    std::uint64_t mergeCount = 0;
    /** Version counter driving the testDropMerge seeded bug. */
    std::uint64_t dropMergeTick = 0;
    /** Per-line newest acked version epoch (armed campaigns only). */
    FlatLineMap<EpochWide> acked;
};

} // namespace nvo

#endif // NVO_NVOVERLAY_OMC_HH
