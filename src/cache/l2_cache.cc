#include "cache/l2_cache.hh"

#include "common/audit.hh"
#include "common/log.hh"

namespace nvo
{

L2Cache::L2Cache(const Params &params, unsigned vd_id,
                 unsigned cores_per_vd)
    : arr(params.sizeBytes, params.ways), lat(params.latency), vd(vd_id),
      localCores(cores_per_vd)
{
    nvo_assert(cores_per_vd <= 16, "sharer bitmask is 16 bits wide");
}

unsigned
L2Cache::localIdx(unsigned core_id) const
{
    unsigned idx = core_id % localCores;
    nvo_assert(core_id / localCores == vd, "core is not in this VD");
    return idx;
}

void
L2Cache::addSharer(CacheLine &line, unsigned local_idx)
{
    line.sharers |= static_cast<std::uint16_t>(1u << local_idx);
}

void
L2Cache::removeSharer(CacheLine &line, unsigned local_idx)
{
    line.sharers &= static_cast<std::uint16_t>(~(1u << local_idx));
}

bool
L2Cache::hasSharer(const CacheLine &line, unsigned local_idx)
{
    return (line.sharers >> local_idx) & 1u;
}

void
L2Cache::setModified(CacheLine &line)
{
    line.state = CohState::M;
    arr.mark(line);
}

void
L2Cache::invalidate(CacheLine &line)
{
    nvo_assert(line.valid());
    arr.invalidate(&line);
    --validSlots;
}

void
L2Cache::audit() const
{
    if (!audit::enabled)
        return;
    arr.audit();
    const std::uint16_t local_mask =
        static_cast<std::uint16_t>((1u << localCores) - 1);
    arr.forEachValid([this, local_mask](const CacheLine &line) {
        NVO_AUDIT((line.sharers & ~local_mask) == 0,
                  "sharer bit outside the VD's local L1s");
        NVO_AUDIT(!line.sealed() || line.dirty,
                  "sealed but clean L2 line");
        NVO_AUDIT(line.state != CohState::M || arr.marked(line),
                  "L2 line in M outside the walk set");
    });
    NVO_AUDIT(validSlots == arr.numValid(),
              "running L2 valid count disagrees with the array");
}

} // namespace nvo
