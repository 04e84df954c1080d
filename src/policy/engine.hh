/**
 * @file
 * PolicyEngine: closed-loop adaptive control of the snapshotting
 * protocol (docs/POLICY.md).
 *
 * Evaluated by the harness at every epoch boundary, the engine runs
 * one controller, the epoch pacer: a PI controller stretches/shrinks
 * the per-VD epoch length to hold NVM write bandwidth at
 * `nvm.write_bw_budget` (longer epochs -> fewer context dumps, merges
 * and re-walks of the same line -> less metadata bandwidth, and vice
 * versa). Storage pressure is the backend's own mechanism
 * (`mnm.compaction_threshold`), not the engine's.
 *
 * The engine keeps its previous (cycle, total NVM write bytes) sample
 * and measures bandwidth as the difference, so every decision is a
 * pure function of sampled simulated state and runs are byte-identical
 * from host to host; with `policy.enabled` unset nothing here is
 * constructed and every existing output stays byte-unchanged.
 */

#ifndef NVO_POLICY_ENGINE_HH
#define NVO_POLICY_ENGINE_HH

#include <cstdint>

#include "common/types.hh"
#include "policy/controller.hh"

namespace nvo
{

class Config;
class NVOverlayScheme;
struct RunStats;

namespace obs
{
class JsonWriter;
} // namespace obs

namespace policy
{

/** The pacer's id in `policy_decision` (controller) and
 *  `policy_actuate` (knob: the epoch length) trace events. Ids are
 *  stable, so a recorded trace decodes across versions; 1, 2 and 3
 *  belonged to retired controllers and knobs. */
constexpr std::uint64_t kEpochPacerId = 0;

struct Params
{
    // --- Epoch pacer (off unless bwBudget > 0) ---
    /** NVM write-bandwidth budget, bytes per 1024 cycles. */
    std::uint64_t bwBudget = 0;
    /** PI gains over kGainDen; output is in stores-per-epoch. The
     *  defaults assume the plant slope of the metadata-dominated
     *  regime (docs/POLICY.md), roughly -3.5 B/Kcycle per unit of
     *  per-VD epoch length on the index workloads. */
    std::int64_t epochKp = 8;
    std::int64_t epochKi = 1;
    /** Epoch-length clamp, stores per VD. The cap confines the
     *  controller to the short-epoch regime where bandwidth falls
     *  monotonically as the epoch stretches; past ~1k stores/VD the
     *  response flattens and eventually inverts (stall amortization
     *  outweighs the metadata savings). */
    std::uint64_t epochMin = 16;
    std::uint64_t epochMax = 1024;

    /** Read the policy.* keys (caller gates on policy.enabled). */
    static Params fromConfig(const Config &cfg);
};

class PolicyEngine
{
  public:
    PolicyEngine(NVOverlayScheme &scheme, const RunStats &stats,
                 const Params &params);

    /** One control step; called at every observed epoch boundary,
     *  after the series/exporter sampled the epoch as it ran. */
    void onEpochBoundary(Cycle now);

    /** Export audit counters into RunStats::extra (`policy_*`). */
    void exportStats(RunStats &stats) const;

    /** The `policy` section of the stats JSON (one object). */
    void writeJson(obs::JsonWriter &w) const;

    const Params &params() const { return p_; }
    std::uint64_t evals() const { return evals_; }
    /** Epoch-length writes that changed the length. */
    std::uint64_t epochSets() const { return epochSets_; }

  private:
    /** @p bw is the interval's bandwidth in bytes per 1024 cycles,
     *  @p delta_cycles the interval's span. */
    void stepEpochPacer(Cycle now, std::int64_t bw,
                        std::uint64_t delta_cycles);
    void registerGauges();

    NVOverlayScheme &scheme_;
    const RunStats &stats_;
    Params p_;
    PidController epochPid_;

    /** The previous boundary's sample; the first boundary only
     *  records one. */
    bool sampled_ = false;
    Cycle prevCycle_ = 0;
    std::uint64_t prevNvmBytes_ = 0;

    /** EMA-filtered bandwidth (B/Kcycle); -1 until primed. Short
     *  epochs make the per-boundary measurement extremely noisy
     *  (small cycle windows quantize hard), so the pacer controls the
     *  smoothed signal. */
    std::int64_t bwEma_ = -1;
    std::uint64_t evals_ = 0;
    std::uint64_t epochSets_ = 0;
    /** The pacer's gauges (`policy.epoch.*`); the setpoint is
     *  `p_.bwBudget`. */
    std::uint64_t measured_ = 0;
    std::uint64_t output_ = 0;
};

} // namespace policy
} // namespace nvo

#endif // NVO_POLICY_ENGINE_HH
