/**
 * @file
 * Version-lifecycle provenance ledger.
 *
 * NVOverlay's correctness story is a lifecycle story: every sealed
 * version evicted from a VD is inserted into an OMC's per-epoch
 * table, merged into the master table when the recoverable epoch
 * passes it (or late-merged if it arrives behind rec-epoch), and is
 * eventually compacted forward or dropped when a newer version
 * supersedes it. The ledger tracks that state machine per version —
 * keyed by (line address, epoch OID), stamped with a compact
 * provenance ID assigned at seal/insert time — and tallies every NVM
 * data write against the lifecycle cause that issued it (the five
 * EvictReason causes plus compaction copies and sub-page
 * relocations). Two invariants fall out mechanically:
 *
 *  - completeness: after a clean finalize no entry may remain in the
 *    Inserted state — a non-terminated version is a snapshot leak
 *    (the observational twin of the NVO_AUDIT merge-completeness
 *    sweep, checkable in release builds and offline from stats JSON);
 *  - attribution: the per-cause byte counters sum exactly to
 *    RunStats::nvmWriteBytes[Data], because MnmBackend::deviceWrite
 *    is the only data-write path and each call names its cause.
 *
 * Cost model, mirroring the tracer: hooks go through `NVO_LEDGER`,
 * which compiles to nothing when the build disables `NVO_TRACE`
 * (operands type-checked, never evaluated); compiled in but disarmed
 * (the default — `ledger.enabled` unset), a hook is one load and one
 * branch; armed, it is a hash-map upsert per version transition.
 * Transitions also emit Cat::Ledger trace events carrying the
 * provenance ID, so a Chrome trace can replay a single version's
 * journey across tracks.
 */

#ifndef NVO_OBS_LEDGER_HH
#define NVO_OBS_LEDGER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/stats.hh"
#include "common/types.hh"
#include "obs/trace.hh"
#include "tenant/asid.hh"

namespace nvo
{

class Config;

namespace obs
{

class JsonWriter;

/** True when the build compiles ledger (and trace) hooks in. */
constexpr bool ledgerCompiled = traceCompiled;

/** Lifecycle cause of an NVM data write. The first five mirror
 *  EvictReason (what pushed the version out of the hierarchy); the
 *  last two are backend-internal writes. */
enum class LedgerCause : unsigned
{
    Capacity = 0,     ///< replacement eviction reached the OMC
    Coherence,        ///< downgrade/invalidation write back
    TagWalk,          ///< background tag-walker drain
    StoreEvict,       ///< store-eviction of an immutable version
    EpochFlush,       ///< synchronous epoch-boundary flush
    CompactionCopy,   ///< GC copied a live version forward
    SubpageReloc,     ///< sub-page growth relocated versions
    NumCauses
};

const char *toString(LedgerCause c);

/** Map a hierarchy eviction reason onto its ledger cause. */
constexpr LedgerCause
causeOf(EvictReason why)
{
    return static_cast<LedgerCause>(static_cast<unsigned>(why));
}

/** Per-version lifecycle state. Inserted is the only non-terminal
 *  state a finished run may not leave behind. */
enum class VerState : unsigned char
{
    Sealed,      ///< provenance assigned at the VD, not yet at an OMC
    Inserted,    ///< mapped by a per-epoch table, awaiting merge
    Merged,      ///< reachable through the master table
    Compacted,   ///< copied forward by GC; storage reclaimed
    Dropped,     ///< superseded/overwritten; never recoverable again
};

const char *toString(VerState s);

class Ledger
{
  public:
    struct Entry
    {
        std::uint64_t prov = 0;
        VerState state = VerState::Sealed;
        LedgerCause cause = LedgerCause::EpochFlush;
        std::uint32_t overwrites = 0;
    };

    /** Hot-path gate for NVO_LEDGER. */
    bool armed() const { return armed_; }

    /**
     * (Re)configure from @p cfg and clear all state: `ledger.enabled`
     * (default off). Arming requires a build with trace hooks
     * compiled in — without them no transition would ever be
     * recorded, so the ledger stays disarmed rather than reporting
     * every version as leaked.
     */
    void configure(const Config &cfg);

    /** Direct runtime control (tests, tools). */
    void setArmed(bool on);

    /** Drop every entry and counter; keeps the armed flag. Called on
     *  crash resets — volatile lifecycle state dies with the run. */
    void reset();

    // --- Lifecycle transitions (call through NVO_LEDGER) -----------

    /** A VD sealed an immutable version (store-eviction / in-place L2
     *  seal). Assigns the provenance ID; re-seals are idempotent. */
    void seal(unsigned vd, Addr line_addr, EpochWide oid, Cycle now);

    /** The version reached an OMC's per-epoch table. A repeat insert
     *  of the same (line, epoch) overwrites the slot in place. */
    void insertVersion(unsigned omc, Addr line_addr, EpochWide oid,
                       LedgerCause cause, Cycle now);

    /** The version became reachable through the master table (rec-
     *  epoch merge, or the late-merge path when @p late). */
    void merged(unsigned omc, Addr line_addr, EpochWide oid, bool late,
                Cycle now);

    /** GC copied the version forward into epoch @p target. */
    void compacted(unsigned omc, Addr line_addr, EpochWide oid,
                   EpochWide target, Cycle now);

    /** The version was superseded or its arrival was already stale;
     *  it can never be read by recovery again. */
    void dropped(unsigned omc, Addr line_addr, EpochWide oid,
                 Cycle now);

    /** Attribute @p bytes of NVM data traffic to @p cause, and to
     *  tenant @p asid (the tag of the line that produced the write;
     *  0 = untenanted). Per-ASID tallies partition the same total the
     *  per-cause tallies do, so both must sum exactly to
     *  RunStats::nvmWriteBytes[Data]. */
    void dataWrite(LedgerCause cause, std::uint64_t bytes,
                   tenant::Asid asid = 0);

    // --- Queries ----------------------------------------------------

    /** Versions still in the Inserted state (leaks once finalized). */
    std::uint64_t liveInserted() const { return liveInserted_; }

    std::uint64_t provsAssigned() const { return nextProv - 1; }
    std::uint64_t sealedCount() const { return sealed_; }
    std::uint64_t insertedCount() const { return inserted_; }
    std::uint64_t mergedCount() const { return merged_; }
    std::uint64_t lateMergedCount() const { return lateMerged_; }
    std::uint64_t compactedCount() const { return compacted_; }
    std::uint64_t droppedCount() const { return dropped_; }
    std::uint64_t overwriteCount() const { return overwrites_; }

    std::uint64_t
    dataBytes(LedgerCause c) const
    {
        return bytesByCause[static_cast<std::size_t>(c)];
    }
    std::uint64_t dataBytesTotal() const;

    /** Visit every non-terminated (Inserted) entry. */
    void forEachLeak(
        const std::function<void(Addr, EpochWide, const Entry &)> &fn)
        const;

    /** JSON object value embedded in stats_json ("ledger" section). */
    void writeJson(JsonWriter &w) const;

  private:
    struct KeyHash
    {
        std::size_t
        operator()(const std::pair<Addr, EpochWide> &k) const
        {
            std::uint64_t h = k.first * 0x9e3779b97f4a7c15ull;
            h ^= k.second + 0x9e3779b97f4a7c15ull + (h << 6) +
                 (h >> 2);
            return static_cast<std::size_t>(h);
        }
    };

    Entry &upsert(Addr line_addr, EpochWide oid, bool &created);
    void terminate(Entry &e, VerState to);

    bool armed_ = false;
    std::uint64_t nextProv = 1;
    std::uint64_t sealed_ = 0;
    std::uint64_t inserted_ = 0;
    std::uint64_t merged_ = 0;
    std::uint64_t lateMerged_ = 0;
    std::uint64_t compacted_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t overwrites_ = 0;
    std::uint64_t liveInserted_ = 0;
    std::array<std::uint64_t,
               static_cast<std::size_t>(LedgerCause::NumCauses)>
        bytesByCause{};
    /** Ordered so the JSON emission is deterministic. Only emitted
     *  when some write carried a nonzero ASID, keeping untenanted
     *  stats JSON byte-identical to the pre-tenant schema. */
    std::map<tenant::Asid, std::uint64_t> bytesByAsid_;
    /** TEST ONLY (tenant.test_unaccounted): skip the per-ASID tally
     *  on sub-page relocation writes — a seeded attribution-leak bug
     *  the nvo_analyze per-tenant exact-sum check must catch. */
    bool testUnaccounted_ = false;
    std::unordered_map<std::pair<Addr, EpochWide>, Entry, KeyHash>
        entries;
};

/** The process-wide ledger (single-threaded simulator). */
Ledger &ledger();

} // namespace obs
} // namespace nvo

#ifdef NVO_TRACE_ENABLED
/** Invoke a Ledger method iff the ledger is armed:
 *  NVO_LEDGER(insertVersion(omc, addr, oid, cause, now)). */
#define NVO_LEDGER(call)                                               \
    do {                                                               \
        ::nvo::obs::Ledger &nl_ = ::nvo::obs::ledger();                \
        if (nl_.armed())                                               \
            nl_.call;                                                  \
    } while (0)
#else
/* Compiled out: the call stays type-checked but is never evaluated. */
#define NVO_LEDGER(call)                                               \
    do {                                                               \
        if (false)                                                     \
            ::nvo::obs::ledger().call;                                 \
    } while (0)
#endif

#endif // NVO_OBS_LEDGER_HH
