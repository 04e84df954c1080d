#include "cache/llc.hh"

#include "common/audit.hh"

namespace nvo
{

LlcSlice::LlcSlice(const Params &params)
    : arr(params.sliceBytes, params.ways), lat(params.latency)
{
}

void
LlcSlice::audit() const
{
    if (!audit::enabled)
        return;
    arr.audit();
    arr.forEachValid([](const CacheLine &line) {
        NVO_AUDIT(line.sharers == 0,
                  "L2-private sharer bits on an LLC line");
        NVO_AUDIT(!line.sealed(), "sealed payload in the LLC");
    });
    table.audit();
    table.forEach([](Addr, const DirEntry &e) {
        NVO_AUDIT(e.sharerVds != 0, "directory entry without a sharer");
        NVO_AUDIT(e.ownerVd < 0 ||
                      e.isSharer(static_cast<unsigned>(e.ownerVd)),
                  "directory owner VD is not a sharer");
    });
}

} // namespace nvo
