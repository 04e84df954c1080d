#include "policy/controller.hh"

#include <algorithm>

namespace nvo
{
namespace policy
{

std::int64_t
PidController::step(std::int64_t measured)
{
    std::int64_t err = p.setpoint - measured;
    integ_ = std::clamp(integ_ + err, p.integMin, p.integMax);
    std::int64_t out = (p.kpNum * err + p.kiNum * integ_) / kGainDen;
    out = std::clamp(out, p.outMin, p.outMax);
    lastErr_ = err;
    return out;
}

} // namespace policy
} // namespace nvo
