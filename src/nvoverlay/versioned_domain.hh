/**
 * @file
 * Per-VD epoch state (paper Sec. III-C, IV-B). A Versioned Domain is
 * a 2-core cluster with its inclusive L2; all its cache controllers
 * share one cur-epoch register, modelled by this class. Epochs
 * advance either on a store-count trigger or by Lamport
 * synchronization when the VD observes a version from the future.
 */

#ifndef NVO_NVOVERLAY_VERSIONED_DOMAIN_HH
#define NVO_NVOVERLAY_VERSIONED_DOMAIN_HH

#include <cstdint>

#include "common/types.hh"

namespace nvo
{

class VersionedDomain
{
  public:
    VersionedDomain(unsigned id, EpochWide initial_epoch = 1)
        : vdId(id), cur(initial_epoch)
    {
    }

    unsigned id() const { return vdId; }
    EpochWide epoch() const { return cur; }

    /** A store committed in this VD during the current epoch. */
    void noteStore() { ++storesThisEpoch; }

    std::uint64_t storesInEpoch() const { return storesThisEpoch; }

    /**
     * Advance to @p target (must be > current). Resets the per-epoch
     * store counter. The scheme counts advances in RunStats.
     */
    void advance(EpochWide target);

  private:
    unsigned vdId;
    EpochWide cur;
    std::uint64_t storesThisEpoch = 0;
};

} // namespace nvo

#endif // NVO_NVOVERLAY_VERSIONED_DOMAIN_HH
