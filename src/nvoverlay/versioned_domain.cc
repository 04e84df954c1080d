#include "nvoverlay/versioned_domain.hh"

#include "common/log.hh"

namespace nvo
{

void
VersionedDomain::advance(EpochWide target)
{
    nvo_assert(target > cur, "epoch advance must move forward");
    cur = target;
    storesThisEpoch = 0;
}

} // namespace nvo
