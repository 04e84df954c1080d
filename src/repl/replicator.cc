#include "repl/replicator.hh"

#include "common/log.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace nvo
{
namespace repl
{

Replicator::Params
Replicator::paramsFrom(const Config &cfg)
{
    Params p;
    p.link.bytesPerCycle = cfg.getU64("repl.bw_bytes_per_cycle", 16);
    p.link.latency = cfg.getU64("repl.latency", 5000);
    p.link.ackLatency = cfg.getU64("repl.ack_latency", 2500);
    p.link.dropRate = cfg.getF64("repl.drop_rate", 0.0);
    p.link.corruptRate = cfg.getF64("repl.corrupt_rate", 0.0);
    p.link.window =
        static_cast<unsigned>(cfg.getU64("repl.window", 64));
    p.link.highWater = static_cast<std::size_t>(
        cfg.getU64("repl.highwater", 4096));
    p.link.retryTimeout = cfg.getU64("repl.retry_timeout", 40000);
    p.link.maxRetries =
        static_cast<unsigned>(cfg.getU64("repl.max_retries", 64));
    // Decorrelate from the workload's reference stream while staying
    // deterministic per seed.
    p.link.seed = cfg.getU64("rng.seed", 1) + 0x9e3779b9u;
    p.stallCycles = cfg.getU64("repl.stall_cycles", 200);
    p.testCursorBug = cfg.getBool("repl.test_cursor_bug", false);
    return p;
}

Replicator::Replicator(const Params &params, MnmBackend &backend_ref,
                       NvmModel &nvm_model, RunStats &run_stats)
    : p(params), backend(backend_ref), stats(run_stats)
{
    link_ = std::make_unique<AsyncLink>(p.link);

    ReplicaApplier::Params rp;
    rp.numOmcs = backend.numOmcs();
    replica_ = std::make_unique<ReplicaApplier>(rp);

    DeltaShipper::Params sp;
    sp.cursorAddr = p.cursorAddr;
    sp.testCursorBug = p.testCursorBug;
    shipper_ = std::make_unique<DeltaShipper>(backend, nvm_model,
                                              *link_, stats, sp);

    link_->setDeliver(
        [this](const std::vector<std::uint8_t> &bytes, Cycle cycle) {
            decoder_.feed(bytes);
            while (auto f = decoder_.poll()) {
                replica_->onFrame(*f, cycle);
                link_->ack(f->frameId, cycle);
            }
        });
    link_->setOnAck([this](std::uint64_t frame_id, Cycle cycle) {
        shipper_->onFrameAcked(frame_id, cycle);
    });

    backend.setReplSink(shipper_.get());

    // Live replication health, polled at snapshot time. Both values
    // are simulated-link state (seeded RNG), so they stay Sim scope
    // and deterministic per seed.
    obs::metricRegistry().addGauge("repl.retransmits", [this] {
        return link_->stats().retries;
    });
    obs::metricRegistry().addGauge("repl.lag_epochs", [this] {
        std::uint64_t shipped = stats.repl.epochsShipped;
        std::uint64_t applied = replica_->epochsApplied();
        return shipped > applied ? shipped - applied : 0;
    });
}

Replicator::~Replicator()
{
    backend.setReplSink(nullptr);
}

void
Replicator::tick(Cycle now)
{
    link_->tick(now);
}

Cycle
Replicator::drain(Cycle now)
{
    // Generous bound: a dead link trips the per-frame retry budget
    // long before this does.
    constexpr std::uint64_t maxIters = 1u << 24;
    constexpr Cycle quantum = 1000;
    for (std::uint64_t i = 0; i < maxIters; ++i) {
        // Idle means every frame was delivered and acked: the replica
        // has received everything it will ever receive. If it still
        // has not caught up the stream is permanently short (e.g. a
        // cursor bug skipped an epoch on resume) — return and let
        // verify() report the non-convergence instead of spinning.
        if (link_->idle())
            return now;
        now += quantum;
        link_->tick(now);
    }
    nvo_assert(false, "replication stream failed to drain");
    return now;
}

bool
Replicator::congested(Cycle now)
{
    if (!link_->congested())
        return false;
    ++stats.repl.backpressureStalls;
    NVO_TRACE(Repl, ReplBackpressure, obs::trackRepl, now,
              link_->queueDepth(), 0);
    return true;
}

Replicator::VerifyReport
Replicator::verify(const WriteTracker &tracker,
                   bool tolerate_inflight) const
{
    VerifyReport rep;
    rep.appliedRec = replica_->appliedRecEpoch();
    rep.primaryRec = backend.recEpoch();
    rep.converged = rep.appliedRec >= rep.primaryRec;
    const MnmBackend &standby = replica_->backend();
    for (Addr line : tracker.trackedLines()) {
        for (EpochWide e = 1; e <= rep.appliedRec; ++e) {
            auto expect = tracker.expectedEntry(line, e);
            if (!expect)
                continue;
            if (tolerate_inflight &&
                backend.ackedEpoch(line) < expect->epoch) {
                // The primary itself never processed this version
                // before the crash (late-merge window); the replica
                // cannot have it either.
                ++rep.inflightSkips;
                continue;
            }
            ++rep.linesChecked;
            LineData got;
            if (!standby.readSnapshot(line, e, got) ||
                got.digest() != expect->digest)
                ++rep.mismatches;
        }
    }
    return rep;
}

void
Replicator::exportStats()
{
    const AsyncLink::LinkStats &ls = link_->stats();
    stats.repl.framesSent = ls.framesSent;
    stats.repl.framesRetried = ls.retries;
    stats.repl.framesDropped = ls.drops;
    stats.repl.framesCorrupted = ls.corrupts;
    stats.repl.framesAcked = ls.acked;
    stats.repl.wireBytes = ls.wireBytes;
    stats.repl.sendQueuePeak = ls.queuePeak;
    stats.repl.framesDeduped = replica_->framesDeduped();
    stats.repl.epochsApplied = replica_->epochsApplied();
    stats.repl.appliedRecEpoch = replica_->appliedRecEpoch();
    stats.repl.cursorEpoch = shipper_->durableCursor();
    stats.repl.decodeResyncs = decoder_.resyncs();
    stats.repl.decodeCrcErrors = decoder_.crcErrors();
}

} // namespace repl
} // namespace nvo
