/**
 * @file
 * PolicyEngine: closed-loop adaptive control of the snapshotting
 * protocol (docs/POLICY.md).
 *
 * Evaluated by the harness at every epoch boundary, the engine runs
 * up to two controllers over the SignalBus's derived signals:
 *
 *  - epoch pacer: a PI controller stretches/shrinks the per-VD epoch
 *    length to hold NVM write bandwidth at `nvm.write_bw_budget`
 *    (longer epochs -> fewer context dumps, merges and re-walks of
 *    the same line -> less metadata bandwidth, and vice versa);
 *  - compaction governor: hysteresis on pool occupancy plus a
 *    weighted occupancy slope triggers backend compaction passes
 *    while the projected occupancy stays above the high threshold.
 *
 * Every decision is a pure function of sampled simulated state, so
 * runs are byte-identical from host to host; with `policy.enabled`
 * unset nothing here is constructed and every existing output stays
 * byte-unchanged.
 */

#ifndef NVO_POLICY_ENGINE_HH
#define NVO_POLICY_ENGINE_HH

#include <cstdint>

#include "common/types.hh"
#include "policy/actuator.hh"
#include "policy/controller.hh"
#include "policy/signal.hh"

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

/** Controller identifiers (`policy_decision` trace a0, gauge names).
 *  The values are stable trace ids, so a recorded trace decodes
 *  across versions; 1 and 3 belonged to retired controllers. */
enum class Ctrl : std::uint64_t
{
    Epoch = 0,
    Compact = 2,
};

const char *toString(Ctrl c);

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
    // --- Compaction governor (off unless compactHi > 0) ---
    /** Occupancy engage/release thresholds, permille of the pool. */
    std::int64_t compactHi = 0;
    std::int64_t compactLo = 0;
    /** Occupancy-slope weight in the projected-occupancy measure. */
    std::int64_t compactSlopeW = 4;

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
    const Actuator &actuator() const { return act_; }

  private:
    struct GaugeSet
    {
        std::uint64_t setpoint = 0;
        std::uint64_t measured = 0;
        std::uint64_t output = 0;
    };

    void stepEpochPacer(Cycle now, const Signals &s);
    void stepCompact(Cycle now, const Signals &s);
    void registerGauges();

    NVOverlayScheme &scheme_;
    Params p_;
    SignalBus bus_;
    Actuator act_;
    PidController epochPid_;
    HysteresisController compactHys_;

    /** EMA-filtered bandwidth (B/Kcycle); -1 until primed. Short
     *  epochs make the per-boundary measurement extremely noisy
     *  (small cycle windows quantize hard), so the pacer controls the
     *  smoothed signal. */
    std::int64_t bwEma_ = -1;
    std::uint64_t evals_ = 0;
    GaugeSet epochGauge_;
    GaugeSet compactGauge_;
};

} // namespace policy
} // namespace nvo

#endif // NVO_POLICY_ENGINE_HH
