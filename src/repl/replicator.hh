/**
 * @file
 * Replication bundle: shipper + link + decoder + replica, wired
 * end-to-end and driven from the scheme's tick.
 *
 * Data path per frame: DeltaShipper encodes and link.send()s it; the
 * link's deliver callback feeds raw (possibly corrupted) bytes into
 * the streaming Decoder; every intact frame goes to the
 * ReplicaApplier and is acked back over the link; the ack completes
 * in the shipper, which advances (and persists) the replication
 * cursor once an epoch is fully acked with no unacked predecessor.
 *
 * Failover verification (verify()) walks every tracked line at every
 * applied epoch and compares the standby's time-travel read against
 * the primary's WriteTracker digest — byte-exact, per epoch, up to
 * the standby's applied rec-epoch.
 */

#ifndef NVO_REPL_REPLICATOR_HH
#define NVO_REPL_REPLICATOR_HH

#include <memory>

#include "common/config.hh"
#include "mem/write_tracker.hh"
#include "repl/link.hh"
#include "repl/replica.hh"
#include "repl/shipper.hh"
#include "repl/wire.hh"

namespace nvo
{
namespace repl
{

class Replicator
{
  public:
    struct Params
    {
        AsyncLink::Params link;
        /** Epoch-advance stall per congested check (backpressure). */
        Cycle stallCycles = 200;
        bool testCursorBug = false;
        /** NVM address of the shipper's durable cursor record. */
        Addr cursorAddr = 0;
    };

    /** Read `repl.*` keys; cursorAddr is filled by the caller. */
    static Params paramsFrom(const Config &cfg);

    Replicator(const Params &params, MnmBackend &backend,
               NvmModel &nvm_model, RunStats &run_stats);
    ~Replicator();

    /** Advance the link (and therefore deliveries, acks, retries). */
    void tick(Cycle now);

    /**
     * Pump the link until it is idle and the replica has applied
     * everything the primary certified. Returns the cycle at which
     * the stream drained.
     */
    Cycle drain(Cycle now);

    /** Epoch advance should stall: the send queue hit high water. */
    bool congested(Cycle now);

    Cycle stallCycles() const { return p.stallCycles; }

    struct VerifyReport
    {
        std::uint64_t linesChecked = 0;
        std::uint64_t mismatches = 0;
        /** Versions the primary backend never acked before a crash
         *  (legitimately lost in the late-merge window). */
        std::uint64_t inflightSkips = 0;
        EpochWide appliedRec = 0;
        EpochWide primaryRec = 0;
        bool converged = false;   ///< replica caught up to primary
        /** Set after a crash (fault::crashAndRecover): the cursor
         *  durable at the crash and the epochs resume re-shipped. */
        EpochWide durableCursor = 0;
        std::uint64_t reshipped = 0;

        /** Resume re-shipped every epoch although the cursor was
         *  durable: the resume-from-cursor guarantee broke. */
        bool
        fullRestream() const
        {
            return durableCursor > 0 && primaryRec > 0 &&
                   reshipped >= primaryRec;
        }

        bool
        consistent() const
        {
            return mismatches == 0 && converged && !fullRestream();
        }
    };

    /**
     * Byte-exact failover check: for every epoch 1..appliedRec and
     * every tracked line, the standby's snapshot read must match the
     * tracker's expected digest. @p tolerate_inflight skips versions
     * the primary never acked (post-crash verification).
     */
    VerifyReport verify(const WriteTracker &tracker,
                        bool tolerate_inflight) const;

    /** Fill stats.repl from link/decoder/shipper/replica counters. */
    void exportStats();

    DeltaShipper &shipper() { return *shipper_; }
    AsyncLink &link() { return *link_; }
    ReplicaApplier &replica() { return *replica_; }
    const ReplicaApplier &replica() const { return *replica_; }
    const Decoder &decoder() const { return decoder_; }

  private:
    Params p;
    MnmBackend &backend;
    RunStats &stats;
    std::unique_ptr<AsyncLink> link_;
    std::unique_ptr<ReplicaApplier> replica_;
    std::unique_ptr<DeltaShipper> shipper_;
    Decoder decoder_;
};

} // namespace repl
} // namespace nvo

#endif // NVO_REPL_REPLICATOR_HH
