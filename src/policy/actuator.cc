#include "policy/actuator.hh"

#include <algorithm>

#include "nvoverlay/nvoverlay_scheme.hh"
#include "obs/trace.hh"

namespace nvo
{
namespace policy
{

std::uint64_t
Actuator::setEpochLength(Cycle now, std::uint64_t stores,
                         std::uint64_t min_stores,
                         std::uint64_t max_stores)
{
    std::uint64_t clamped =
        std::clamp(stores, min_stores, max_stores);
    if (clamped == scheme_.storesPerEpochVdValue())
        return clamped;
    scheme_.setStoresPerEpochVd(clamped);
    ++epochSets_;
    NVO_TRACE(Policy, PolicyActuate, obs::trackSim, now,
              static_cast<std::uint64_t>(Knob::EpochLength), clamped);
    return clamped;
}

void
Actuator::triggerCompaction(Cycle now)
{
    scheme_.backend().compact(now);
    ++compactions_;
    NVO_TRACE(Policy, PolicyActuate, obs::trackSim, now,
              static_cast<std::uint64_t>(Knob::Compaction),
              compactions_);
}

} // namespace policy
} // namespace nvo
