#include "policy/signal.hh"

#include "common/stats.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "nvoverlay/omc.hh"

namespace nvo
{
namespace policy
{

Frame
SignalBus::capture(Cycle now) const
{
    Frame f;
    f.valid = true;
    f.cycle = now;
    f.nvmWriteBytes = stats_.totalNvmWriteBytes();
    const MnmBackend &be = scheme_.backend();
    f.poolPagesInUse = be.poolPagesInUseTotal();
    f.poolPagesTotal = be.poolPagesTotal();
    return f;
}

Signals
SignalBus::sample(Cycle now)
{
    Frame cur = capture(now);
    Signals s;
    if (prev_.valid && cur.cycle > prev_.cycle) {
        s.valid = true;
        s.deltaCycles = cur.cycle - prev_.cycle;
        s.bwBytesPerKCycle = static_cast<std::int64_t>(
            (cur.nvmWriteBytes - prev_.nvmWriteBytes) * 1024 /
            s.deltaCycles);
        std::int64_t occ =
            cur.poolPagesTotal
                ? static_cast<std::int64_t>(cur.poolPagesInUse *
                                            1000 /
                                            cur.poolPagesTotal)
                : 0;
        std::int64_t prevOcc =
            prev_.poolPagesTotal
                ? static_cast<std::int64_t>(prev_.poolPagesInUse *
                                            1000 /
                                            prev_.poolPagesTotal)
                : 0;
        s.occPermille = occ;
        s.occSlopePermille = occ - prevOcc;
    }
    prev_ = cur;
    return s;
}

} // namespace policy
} // namespace nvo
