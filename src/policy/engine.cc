#include "policy/engine.hh"

#include <algorithm>

#include "common/config.hh"
#include "common/stats.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace nvo
{
namespace policy
{

const char *
toString(Ctrl c)
{
    switch (c) {
      case Ctrl::Epoch: return "epoch";
      case Ctrl::Compact: return "compact";
      default: return "?";
    }
}

Params
Params::fromConfig(const Config &cfg)
{
    Params p;
    p.bwBudget = cfg.getU64("nvm.write_bw_budget", 0);
    p.epochKp = static_cast<std::int64_t>(
        cfg.getU64("policy.epoch.kp", 8));
    p.epochKi = static_cast<std::int64_t>(
        cfg.getU64("policy.epoch.ki", 1));
    p.epochMin = cfg.getU64("policy.epoch.min", 16);
    p.epochMax = cfg.getU64("policy.epoch.max", 1024);
    p.compactHi = static_cast<std::int64_t>(
        cfg.getU64("policy.compact.hi", 0));
    p.compactLo = static_cast<std::int64_t>(
        cfg.getU64("policy.compact.lo", 0));
    p.compactSlopeW = static_cast<std::int64_t>(
        cfg.getU64("policy.compact.slope_w", 4));
    return p;
}

namespace
{

PidParams
epochPidParams(const Params &p)
{
    PidParams pp;
    pp.setpoint = static_cast<std::int64_t>(p.bwBudget);
    pp.kpNum = p.epochKp;
    pp.kiNum = p.epochKi;
    // The output is a *relative* adjustment in 1/1024ths of the
    // current length (the plant's bandwidth response is roughly
    // exponential in epoch length, so a multiplicative step keeps
    // the loop gain flat across the operating range). One step never
    // moves the length by more than half, and the integrator is
    // bounded so a saturated stretch (e.g., a phase whose demand
    // cannot reach the budget) unwinds in a bounded number of epochs.
    pp.outMax = 512;
    pp.outMin = -pp.outMax;
    pp.integMax = p.epochKi > 0
                      ? (pp.outMax * kGainDen) / p.epochKi
                      : INT64_MAX;
    pp.integMin = -pp.integMax;
    return pp;
}

} // namespace

PolicyEngine::PolicyEngine(NVOverlayScheme &scheme,
                           const RunStats &stats, const Params &params)
    : scheme_(scheme), p_(params), bus_(scheme, stats), act_(scheme),
      epochPid_(epochPidParams(params)),
      compactHys_({params.compactHi, params.compactLo, false})
{
    epochGauge_.setpoint = p_.bwBudget;
    epochGauge_.output = scheme_.storesPerEpochVdValue();
    compactGauge_.setpoint = static_cast<std::uint64_t>(
        std::max<std::int64_t>(p_.compactHi, 0));
    registerGauges();
}

void
PolicyEngine::registerGauges()
{
    auto &reg = obs::metricRegistry();
    struct Row
    {
        Ctrl c;
        bool enabled;
        const GaugeSet *gauge;
    };
    const Row rows[] = {
        {Ctrl::Epoch, p_.bwBudget > 0, &epochGauge_},
        {Ctrl::Compact, p_.compactHi > 0, &compactGauge_},
    };
    for (const Row &r : rows) {
        if (!r.enabled)
            continue;
        const std::string base =
            std::string("policy.") + toString(r.c);
        const GaugeSet *g = r.gauge;
        reg.addGauge(base + ".setpoint",
                     [g] { return g->setpoint; });
        reg.addGauge(base + ".measured",
                     [g] { return g->measured; });
        reg.addGauge(base + ".output", [g] { return g->output; });
    }
}

void
PolicyEngine::onEpochBoundary(Cycle now)
{
    ++evals_;
    Signals s = bus_.sample(now);
    if (!s.valid)
        return;   // first boundary primes the frame history
    if (p_.bwBudget)
        stepEpochPacer(now, s);
    if (p_.compactHi > 0)
        stepCompact(now, s);
}

void
PolicyEngine::stepEpochPacer(Cycle now, const Signals &s)
{
    // err = budget - measured. Over budget (err < 0) the output goes
    // negative and the subtraction below *lengthens* the epoch:
    // fewer advances per cycle means fewer context dumps, merges and
    // repeat walk write-backs, i.e., less metadata bandwidth. Under
    // budget the epoch shrinks, spending the headroom on snapshot
    // freshness.
    // Cycle-weighted EMA (window ~1M cycles): each boundary's sample
    // is weighted by the span it covers, so the filtered signal
    // tracks the time-mean bandwidth the budget is stated over —
    // boundary-equal weighting would overweight the dense short-epoch
    // samples and bias the loop.
    constexpr std::int64_t kEmaWindow = 1 << 20;
    if (bwEma_ < 0) {
        bwEma_ = s.bwBytesPerKCycle;
    } else {
        std::int64_t dc = std::min<std::int64_t>(
            static_cast<std::int64_t>(s.deltaCycles), kEmaWindow);
        bwEma_ += dc * (s.bwBytesPerKCycle - bwEma_) / kEmaWindow;
    }
    std::int64_t out = epochPid_.step(bwEma_);
    std::int64_t cur = static_cast<std::int64_t>(
        scheme_.storesPerEpochVdValue());
    // Multiplicative actuation: the step is out/1024 of the current
    // length, floored at one store so the loop cannot wedge at short
    // lengths where the integer product truncates to zero.
    std::int64_t delta = (out * cur) / 1024;
    if (delta == 0 && out != 0)
        delta = out > 0 ? 1 : -1;
    std::int64_t next = cur - delta;
    if (next < 0)
        next = 0;   // actuator clamps up to epochMin
    std::uint64_t applied = act_.setEpochLength(
        now, static_cast<std::uint64_t>(next), p_.epochMin,
        p_.epochMax);
    NVO_TRACE(Policy, PolicyDecision, obs::trackSim, now,
              static_cast<std::uint64_t>(Ctrl::Epoch), applied);
    epochGauge_.measured =
        static_cast<std::uint64_t>(std::max<std::int64_t>(bwEma_, 0));
    epochGauge_.output = applied;
}

void
PolicyEngine::stepCompact(Cycle now, const Signals &s)
{
    // Projected occupancy: where the pool is heading, not just where
    // it is — a fast-rising pool triggers compaction before the
    // threshold itself is crossed.
    std::int64_t projected =
        s.occPermille + p_.compactSlopeW * s.occSlopePermille;
    bool hot = compactHys_.step(projected);
    if (hot)
        act_.triggerCompaction(now);
    NVO_TRACE(Policy, PolicyDecision, obs::trackSim, now,
              static_cast<std::uint64_t>(Ctrl::Compact),
              hot ? 1u : 0u);
    compactGauge_.measured = static_cast<std::uint64_t>(
        std::max<std::int64_t>(projected, 0));
    compactGauge_.output = hot ? 1 : 0;
}

void
PolicyEngine::exportStats(RunStats &stats) const
{
    stats.extra["policy_evals"] = evals_;
    stats.extra["policy_epoch_sets"] = act_.epochSets();
    stats.extra["policy_epoch_len"] =
        scheme_.storesPerEpochVdValue();
    stats.extra["policy_compactions"] = act_.compactions();
}

void
PolicyEngine::writeJson(obs::JsonWriter &w) const
{
    w.beginObject();
    w.kv("evals", evals_);
    w.key("controllers").beginObject();
    struct Row
    {
        Ctrl c;
        bool enabled;
        const GaugeSet *gauge;
        std::uint64_t actuations;
    };
    const Row rows[] = {
        {Ctrl::Epoch, p_.bwBudget > 0, &epochGauge_, act_.epochSets()},
        {Ctrl::Compact, p_.compactHi > 0, &compactGauge_,
         act_.compactions()},
    };
    for (const Row &r : rows) {
        const GaugeSet &g = *r.gauge;
        w.key(toString(r.c)).beginObject();
        w.kv("enabled", r.enabled);
        w.kv("setpoint", g.setpoint);
        w.kv("measured", g.measured);
        w.kv("output", g.output);
        w.kv("actuations", r.actuations);
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

} // namespace policy
} // namespace nvo
