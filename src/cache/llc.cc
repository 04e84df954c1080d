#include "cache/llc.hh"

#include "common/audit.hh"
#include "common/bitutil.hh"

namespace nvo
{

LlcSlice::LlcSlice(const Params &params)
    : arr(params.sliceBytes, params.ways), lat(params.latency)
{
}

DirEntry &
LlcSlice::dir(Addr line_addr)
{
    return directory[line_addr];
}

DirEntry *
LlcSlice::dirProbe(Addr line_addr)
{
    auto it = directory.find(line_addr);
    return it == directory.end() ? nullptr : &it->second;
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
    for (const auto &kv : directory) {
        NVO_AUDIT(lineAlign(kv.first) == kv.first,
                  "directory keyed by an unaligned address");
        const DirEntry &e = kv.second;
        NVO_AUDIT(e.ownerVd < 0 ||
                      e.isSharer(static_cast<unsigned>(e.ownerVd)),
                  "directory owner VD is not a sharer");
    }
}

} // namespace nvo
