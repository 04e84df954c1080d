/**
 * @file
 * Deterministic feedback controller for the adaptive policy engine.
 *
 * The controller is a pure function of its own state and the
 * measured input — no clocks, no floating point, no randomness — so
 * stepped with the same sequence of measurements it produces the
 * same sequence of outputs on any host. Gains are expressed as
 * integer numerators over a fixed power-of-two denominator
 * (`kGainDen`), which keeps the arithmetic exact and the step
 * responses hand-computable in unit tests (see docs/POLICY.md for the
 * tuning guide and the determinism argument).
 */

#ifndef NVO_POLICY_CONTROLLER_HH
#define NVO_POLICY_CONTROLLER_HH

#include <cstdint>

namespace nvo
{
namespace policy
{

/** Fixed denominator for PI gains: gain = num / kGainDen. */
constexpr std::int64_t kGainDen = 64;

struct PidParams
{
    /** Target value of the measured signal. */
    std::int64_t setpoint = 0;
    /** Proportional gain numerator (over kGainDen). */
    std::int64_t kpNum = 0;
    /** Integral gain numerator (over kGainDen). */
    std::int64_t kiNum = 0;
    /** Output clamp (applied after the gain arithmetic). */
    std::int64_t outMin = INT64_MIN;
    std::int64_t outMax = INT64_MAX;
    /** Anti-windup clamp on the error accumulator. */
    std::int64_t integMin = INT64_MIN;
    std::int64_t integMax = INT64_MAX;
};

/**
 * Discrete PI controller in pure 64-bit integer arithmetic:
 *
 *   err    = setpoint - measured
 *   integ  = clamp(integ + err, integMin, integMax)
 *   output = clamp((kpNum*err + kiNum*integ) / kGainDen,
 *                  outMin, outMax)
 *
 * The division truncates toward zero (C++ semantics), which the unit
 * oracles in tests/test_policy.cc reproduce exactly.
 */
class PidController
{
  public:
    explicit PidController(const PidParams &params) : p(params) {}

    std::int64_t step(std::int64_t measured);

    void
    reset()
    {
        integ_ = 0;
        lastErr_ = 0;
    }

    std::int64_t integrator() const { return integ_; }
    std::int64_t lastError() const { return lastErr_; }
    const PidParams &params() const { return p; }

    /** Retarget without losing the accumulated error history. */
    void setSetpoint(std::int64_t sp) { p.setpoint = sp; }

  private:
    PidParams p;
    std::int64_t integ_ = 0;
    std::int64_t lastErr_ = 0;
};

} // namespace policy
} // namespace nvo

#endif // NVO_POLICY_CONTROLLER_HH
