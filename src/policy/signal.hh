/**
 * @file
 * SignalBus: the policy engine's single window onto the running
 * simulation.
 *
 * At every epoch boundary the bus samples one Frame of cumulative
 * counters (NVM write bytes, page-pool occupancy) from the backend
 * and RunStats, then derives integer-valued Signals by differencing
 * against the previous frame. Controllers consume only
 * Signals — never wall-clock time, host state, or floating point — so
 * a run's decision sequence is a pure function of the simulated
 * execution (frames are sampled after the quantum barrier; see
 * docs/POLICY.md).
 */

#ifndef NVO_POLICY_SIGNAL_HH
#define NVO_POLICY_SIGNAL_HH

#include <cstdint>

#include "common/types.hh"

namespace nvo
{

class NVOverlayScheme;
struct RunStats;

namespace policy
{

/** One sample of cumulative run state at an epoch boundary. */
struct Frame
{
    bool valid = false;
    Cycle cycle = 0;
    std::uint64_t nvmWriteBytes = 0;   ///< all kinds, cumulative
    std::uint64_t poolPagesInUse = 0;
    std::uint64_t poolPagesTotal = 0;
};

/** Derived per-interval signals (integer arithmetic only). */
struct Signals
{
    /** False on the first boundary: no previous frame to diff. */
    bool valid = false;
    /** NVM write bandwidth over the interval, bytes per 1024 cycles
     *  (the TenantManager QoS unit). */
    std::int64_t bwBytesPerKCycle = 0;
    /** Pool occupancy, in 1/1000 of allocated pages. */
    std::int64_t occPermille = 0;
    /** Occupancy change since the previous boundary, permille. */
    std::int64_t occSlopePermille = 0;
    std::uint64_t deltaCycles = 0;
};

class SignalBus
{
  public:
    SignalBus(NVOverlayScheme &scheme, const RunStats &stats)
        : scheme_(scheme), stats_(stats)
    {
    }

    /**
     * Sample the current frame and derive signals against the
     * previous one. The first call primes the history and returns
     * `valid == false`.
     */
    Signals sample(Cycle now);

  private:
    Frame capture(Cycle now) const;

    NVOverlayScheme &scheme_;
    const RunStats &stats_;
    Frame prev_;
};

} // namespace policy
} // namespace nvo

#endif // NVO_POLICY_SIGNAL_HH
