/**
 * @file
 * Standby replica applier.
 *
 * The replica owns its own NVM model, page pool, and MnmBackend (one
 * VD: the stream is already serialized into epochs) and rebuilds the
 * primary's recoverable image from decoded frames. Delta frames
 * accumulate per epoch until the epoch's EpochClose arrives with the
 * expected count; complete epochs then apply strictly in epoch order
 * through the standby backend's normal insertVersion + reportMinVer
 * path, so the standby's own recoverable epoch ("applied rec-epoch")
 * advances exactly like a primary's would. LateDelta amendments to
 * already-applied epochs replay the late-merge path immediately.
 *
 * Duplicate deliveries (retransmissions whose original made it) are
 * deduped by frame id; a generation bump (primary resumed from its
 * durable cursor) drops incomplete pending epochs — the resumed
 * stream re-ships them whole. The resumed stream also re-ships epochs
 * the standby applied ahead of the durable cursor; their Delta and
 * EpochClose frames are dropped on arrival.
 *
 * Applies run with the global tracer, ledger, and fault registry
 * quiesced: the standby shares those singletons with the primary and
 * must not pollute its observability or consume its fault schedule.
 */

#ifndef NVO_REPL_REPLICA_HH
#define NVO_REPL_REPLICA_HH

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/stats.hh"
#include "nvoverlay/omc.hh"
#include "repl/wire.hh"

namespace nvo
{
namespace repl
{

class ReplicaApplier
{
  public:
    struct Params
    {
        unsigned numOmcs = 4;
        Addr poolBase = 1ull << 40;
        std::uint64_t poolBytesPerOmc = 64ull * 1024 * 1024;
    };

    explicit ReplicaApplier(const Params &params);

    /** A decoded frame arrived (call link.ack(frame.frameId) after). */
    void onFrame(const Frame &f, Cycle now);

    /** Highest epoch fully applied (the standby's rec-epoch). */
    EpochWide appliedRecEpoch() const { return appliedRec; }

    std::uint64_t framesDeduped() const { return deduped; }
    /** Epochs holding frames that have not applied yet (tests). */
    std::size_t pendingEpochs() const { return pending.size(); }
    std::uint64_t epochsApplied() const { return applied; }

    /** Standby image reads (failover verification). */
    const MnmBackend &backend() const { return *standby; }

  private:
    struct PendingEpoch
    {
        /** line -> (content, newest frame id that carried it). */
        std::map<Addr, std::pair<LineData, std::uint64_t>> deltas;
        /** Amendments that overtook the epoch's own close frame;
         *  applied after the regular deltas. */
        struct Late
        {
            Addr line;
            LineData content;
            std::uint64_t frameId;
        };
        std::vector<Late> lates;
        bool closed = false;
        std::uint64_t expected = 0;
    };

    /** Apply every complete epoch at appliedRec + 1. */
    void tryApply(Cycle now);

    Params p;
    RunStats standbyStats;          ///< standby-side counters (own)
    std::unique_ptr<NvmModel> nvm;
    std::unique_ptr<MnmBackend> standby;

    EpochWide appliedRec = 0;
    std::uint32_t generation = 0;
    std::map<EpochWide, PendingEpoch> pending;
    std::set<std::uint64_t> seenFrames;
    std::uint64_t deduped = 0;
    std::uint64_t applied = 0;
};

} // namespace repl
} // namespace nvo

#endif // NVO_REPL_REPLICA_HH
