#include "repl/replica.hh"

#include "common/log.hh"
#include "fault/fault.hh"
#include "obs/ledger.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace nvo
{
namespace repl
{

namespace
{

/**
 * Quiesce the global observability/fault singletons for the scope of
 * a standby apply: the replica reuses the primary's backend code, and
 * its inserts must not show up in the primary's trace, be accounted
 * as primary version lifecycles, or consume the primary's fault plan.
 */
class Quiesce
{
  public:
    Quiesce()
        : savedMask(obs::tracer().mask()),
          ledgerWasArmed(obs::ledger().armed()),
          metricsWereArmed(obs::metricRegistry().armed())
    {
        obs::tracer().setMask(0);
        if (ledgerWasArmed)
            obs::ledger().setArmed(false);
        // The standby's MnmBackend shares registered metric handles
        // with the primary's (same names); disarm so standby applies
        // do not pollute the primary's distributions.
        if (metricsWereArmed)
            obs::metricRegistry().setArmed(false);
    }

    ~Quiesce()
    {
        obs::tracer().setMask(savedMask);
        if (ledgerWasArmed)
            obs::ledger().setArmed(true);
        if (metricsWereArmed)
            obs::metricRegistry().setArmed(true);
    }

    Quiesce(const Quiesce &) = delete;
    Quiesce &operator=(const Quiesce &) = delete;

  private:
    std::uint32_t savedMask;
    bool ledgerWasArmed;
    bool metricsWereArmed;
    fault::ScopedPause pause;
};

} // namespace

ReplicaApplier::ReplicaApplier(const Params &params) : p(params)
{
    nvm = std::make_unique<NvmModel>(NvmModel::Params{},
                                     &standbyStats);
    MnmBackend::Params bp;
    bp.numOmcs = p.numOmcs;
    bp.numVds = 1;   // the stream is already one serialized timeline
    bp.poolBase = p.poolBase;
    bp.poolBytesPerOmc = p.poolBytesPerOmc;
    // Keep merged tables: failover verification time-travels into
    // every applied epoch.
    bp.dropMergedTables = false;
    Quiesce q;
    standby = std::make_unique<MnmBackend>(bp, *nvm, standbyStats);
}

void
ReplicaApplier::onFrame(const Frame &f, Cycle now)
{
    if (f.generation > generation) {
        // The primary resumed from its durable cursor: whatever was
        // pending is from the dead stream; the resumed stream
        // re-ships those epochs whole.
        generation = f.generation;
        pending.clear();
    }
    if (!seenFrames.insert(f.frameId).second) {
        ++deduped;
        return;   // retransmission of a frame that already arrived
    }
    if (f.type != FrameType::LateDelta && f.epoch <= appliedRec)
        return;   // a resume re-shipped an epoch already applied here

    switch (f.type) {
      case FrameType::Delta:
        pending[f.epoch].deltas[static_cast<Addr>(f.arg)] = {
            f.payload, f.frameId};
        break;
      case FrameType::EpochClose: {
        PendingEpoch &pe = pending[f.epoch];
        pe.closed = true;
        pe.expected = f.arg;
        break;
      }
      case FrameType::LateDelta:
        if (f.epoch <= appliedRec) {
            // Amendment to an epoch the standby already applied:
            // replay the primary's late-merge path right away.
            Quiesce q;
            standby->insertVersion(static_cast<Addr>(f.arg), f.epoch,
                                   f.frameId, f.payload, now);
        } else {
            // The amended epoch has not applied here yet; its content
            // is (or will be) part of the epoch's own delta once the
            // close arrives, so fold the amendment in as a delta.
            pending[f.epoch].lates.push_back(
                {static_cast<Addr>(f.arg), f.payload, f.frameId});
        }
        break;
    }
    tryApply(now);
}

void
ReplicaApplier::tryApply(Cycle now)
{
    for (;;) {
        auto it = pending.find(appliedRec + 1);
        if (it == pending.end())
            return;
        PendingEpoch &pe = it->second;
        if (!pe.closed || pe.deltas.size() < pe.expected)
            return;   // waiting for retransmissions to fill the gap
        nvo_assert(pe.deltas.size() == pe.expected,
                   "replica holds more deltas for an epoch than the "
                   "primary shipped");
        EpochWide e = it->first;
        {
            Quiesce q;
            for (const auto &kv : pe.deltas)
                standby->insertVersion(kv.first, e, kv.second.second,
                                       kv.second.first, now);
            // Certify the epoch: the standby's own rec-epoch advances
            // and its tables merge exactly like a primary's.
            standby->reportMinVer(0, e + 1, now);
            for (const auto &late : pe.lates)
                standby->insertVersion(late.line, e, late.frameId,
                                       late.content, now);
        }
        nvo_assert(standby->recEpoch() == e,
                   "standby rec-epoch did not follow the applied "
                   "epoch");
        std::uint64_t count = pe.expected;
        pending.erase(it);
        appliedRec = e;
        ++applied;
        NVO_TRACE(Repl, ReplEpochApplied, obs::trackRepl, now, e,
                  count);
    }
}

} // namespace repl
} // namespace nvo
