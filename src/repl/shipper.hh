/**
 * @file
 * Delta extractor + persistent replication cursor (primary side).
 *
 * The shipper implements the backend's ReplSink: when reportMinVer
 * advances the recoverable epoch, onEpochsRecoverable fires *before*
 * mergeUpTo retires the per-epoch tables, so every epoch's (line,
 * content) delta is drained into wire frames while the tables still
 * exist — nothing is lost to the merge. Each epoch ships as a run of
 * Delta frames followed by exactly one EpochClose carrying the delta
 * count (even for empty epochs, so the replica's in-order chain has
 * no gaps). Versions that land behind the recoverable epoch (the
 * late-merge path) ship as LateDelta amendments.
 *
 * Durability: the replication cursor is the highest epoch whose
 * frames are all acked with no unacked predecessor. It persists as a
 * small NVM record (Mapping write + fence) whenever it advances, and
 * pending late amendments keep a tiny durable log alongside it. On a
 * primary crash, resume() rewinds to the durable cursor, bumps the
 * stream generation, and re-extracts only (durableCursor, durableRec]
 * from the rebuilt tables — never a full restream.
 */

#ifndef NVO_REPL_SHIPPER_HH
#define NVO_REPL_SHIPPER_HH

#include <cstdint>
#include <map>
#include <vector>

#include "common/stats.hh"
#include "nvoverlay/omc.hh"
#include "repl/link.hh"
#include "repl/wire.hh"

namespace nvo
{
namespace repl
{

class DeltaShipper : public ReplSink
{
  public:
    struct Params
    {
        /** NVM address of the durable cursor record. */
        Addr cursorAddr = 0;
        /**
         * TEST ONLY: persist the cursor when an epoch is *shipped*
         * rather than when it is *acked* — a premature-durable-cursor
         * bug. A crash with that epoch's frames still in flight makes
         * resume skip re-extracting them, leaving the replica short
         * forever; the convergence check must catch it.
         */
        bool testCursorBug = false;
    };

    DeltaShipper(MnmBackend &backend, NvmModel &nvm_model,
                 AsyncLink &link_ref, RunStats &run_stats,
                 const Params &params);

    // --- ReplSink (called by MnmBackend) ---
    void onEpochsRecoverable(EpochWide from, EpochWide upto,
                             Cycle now) override;
    void onLateVersion(Addr line_addr, EpochWide oid,
                       const LineData &content, Cycle now) override;

    /** Link completion: the receiver acked @p frame_id. */
    void onFrameAcked(std::uint64_t frame_id, Cycle now);

    /**
     * Primary crash: volatile shipping state dies (the link was
     * reset); rewind to the durable cursor.
     */
    void onCrash();

    /**
     * After MnmBackend::crashReset() rebuilt the tables: bump the
     * stream generation and re-extract (durableCursor, durableRec]
     * plus any un-trimmed late amendments. Returns the number of
     * epochs re-shipped (the resume-from-cursor proof: strictly less
     * than durableRec when the cursor had advanced).
     */
    std::uint64_t resume(Cycle now);

    EpochWide cursor() const { return cursor_; }
    EpochWide durableCursor() const { return durableCursor_; }
    EpochWide shippedUpTo() const { return shippedUpTo_; }
    std::uint32_t generation() const { return generation_; }
    std::uint64_t framesShipped() const { return nextFrameId - 1; }

  private:
    void shipEpoch(EpochWide e, Cycle now);
    void sendFrame(FrameType type, EpochWide epoch, std::uint64_t arg,
                   const LineData *payload, Cycle now);
    void maybeAdvanceCursor(Cycle now);
    void persistCursor(Cycle now);

    MnmBackend &backend;
    NvmModel &nvm;
    AsyncLink &link;
    RunStats &stats;
    Params p;

    std::uint32_t generation_ = 1;
    std::uint64_t nextFrameId = 1;
    EpochWide shippedUpTo_ = 0;
    EpochWide cursor_ = 0;
    EpochWide durableCursor_ = 0;

    /** Per-epoch unacked frame counts (regular frames only). */
    std::map<EpochWide, std::uint64_t> outstanding;
    /** frame id -> epoch for regular in-flight frames. */
    std::map<std::uint64_t, EpochWide> frameEpoch;

    /** Durable late-amendment log: un-trimmed entries re-ship on
     *  resume (their content survives in the NVM pool image). */
    struct LateRec
    {
        Addr line;
        EpochWide epoch;
        std::uint64_t frameId;
        bool acked = false;
    };
    std::vector<LateRec> lateLog;
};

} // namespace repl
} // namespace nvo

#endif // NVO_REPL_SHIPPER_HH
