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
    : scheme_(scheme), stats_(stats), p_(params),
      epochPid_(epochPidParams(params)),
      output_(scheme.storesPerEpochVdValue())
{
    registerGauges();
}

void
PolicyEngine::registerGauges()
{
    if (p_.bwBudget == 0)
        return;
    auto &reg = obs::metricRegistry();
    reg.addGauge("policy.epoch.setpoint", [this] { return p_.bwBudget; });
    reg.addGauge("policy.epoch.measured", [this] { return measured_; });
    reg.addGauge("policy.epoch.output", [this] { return output_; });
}

void
PolicyEngine::onEpochBoundary(Cycle now)
{
    ++evals_;
    // Bandwidth over the interval since the previous boundary; the
    // first boundary (or one at the same cycle) only takes a sample.
    const std::uint64_t bytes = stats_.totalNvmWriteBytes();
    const bool have_interval = sampled_ && now > prevCycle_;
    const std::uint64_t delta_cycles = now - prevCycle_;
    const std::uint64_t delta_bytes = bytes - prevNvmBytes_;
    sampled_ = true;
    prevCycle_ = now;
    prevNvmBytes_ = bytes;
    if (have_interval && p_.bwBudget)
        stepEpochPacer(now,
                       static_cast<std::int64_t>(delta_bytes * 1024 /
                                                 delta_cycles),
                       delta_cycles);
}

void
PolicyEngine::stepEpochPacer(Cycle now, std::int64_t bw,
                             std::uint64_t delta_cycles)
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
        bwEma_ = bw;
    } else {
        std::int64_t dc = std::min<std::int64_t>(
            static_cast<std::int64_t>(delta_cycles), kEmaWindow);
        bwEma_ += dc * (bw - bwEma_) / kEmaWindow;
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
    std::int64_t next = std::max<std::int64_t>(cur - delta, 0);
    // The one knob write: clamped, and counted and traced only when
    // it changes the length.
    const std::uint64_t applied = std::clamp(
        static_cast<std::uint64_t>(next), p_.epochMin, p_.epochMax);
    if (applied != scheme_.storesPerEpochVdValue()) {
        scheme_.setStoresPerEpochVd(applied);
        ++epochSets_;
        NVO_TRACE(Policy, PolicyActuate, obs::trackSim, now,
                  kEpochPacerId, applied);
    }
    NVO_TRACE(Policy, PolicyDecision, obs::trackSim, now,
              kEpochPacerId, applied);
    measured_ =
        static_cast<std::uint64_t>(std::max<std::int64_t>(bwEma_, 0));
    output_ = applied;
}

void
PolicyEngine::exportStats(RunStats &stats) const
{
    stats.extra["policy_evals"] = evals_;
    stats.extra["policy_epoch_sets"] = epochSets_;
    stats.extra["policy_epoch_len"] =
        scheme_.storesPerEpochVdValue();
}

void
PolicyEngine::writeJson(obs::JsonWriter &w) const
{
    w.beginObject();
    w.kv("evals", evals_);
    w.key("controllers").beginObject();
    w.key("epoch").beginObject();
    w.kv("enabled", p_.bwBudget > 0);
    w.kv("setpoint", p_.bwBudget);
    w.kv("measured", measured_);
    w.kv("output", output_);
    w.kv("actuations", epochSets_);
    w.endObject();
    w.endObject();
    w.endObject();
}

} // namespace policy
} // namespace nvo
