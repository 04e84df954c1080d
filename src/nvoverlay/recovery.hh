/**
 * @file
 * Crash recovery (paper Sec. V-E, "Crash Recovery").
 *
 * After a (simulated) crash, everything volatile is gone: caches,
 * DRAM, per-epoch tables. What survives on NVM: the master table,
 * rec-epoch, and the overlay data pages with their self-describing
 * sub-page headers (a buffered version's content already sits in its
 * page). MnmBackend::crashReset rebuilds the per-epoch tables from
 * those headers, so time travel keeps working after recovery;
 * RecoveryManager rebuilds the consistent memory image by scanning
 * the master table and loading every version into a fresh backing
 * store.
 */

#ifndef NVO_NVOVERLAY_RECOVERY_HH
#define NVO_NVOVERLAY_RECOVERY_HH

#include <cstdint>
#include <memory>

#include "common/types.hh"
#include "mem/backing_store.hh"
#include "nvoverlay/omc.hh"

namespace nvo
{

class RecoveryManager
{
  public:
    struct Result
    {
        /** Epoch the image corresponds to. */
        EpochWide recEpoch = 0;
        /** Rebuilt consistent memory image: line content only (no
         *  line is OID- or seqno-tagged), so 4 KB per page. */
        std::unique_ptr<BackingStore> image;
        std::uint64_t linesRestored = 0;
        /**
         * Modelled recovery cost: one NVM line read per restored
         * line plus table-scan overhead, in cycles (sequential).
         */
        Cycle modelCycles = 0;
    };

    explicit RecoveryManager(const MnmBackend &backend_)
        : backend(backend_)
    {
    }

    /**
     * Rebuild the consistent image at the persisted rec-epoch by
     * scanning the master table (paper: "loads the consistent image
     * from the NVM by scanning Mmaster").
     */
    Result recover() const;

    /**
     * Per-tenant recovery: rebuild only tenant @p asid's address
     * space (the master-table subtree its tag selects), leaving every
     * co-tenant untouched and still live. The image is keyed by the
     * tagged addresses, so it is byte-comparable against a full
     * recovery or a solo run of the same tenant.
     */
    Result recoverTenant(tenant::Asid asid) const;

    /**
     * Verify that the rebuilt image is self-consistent with the
     * master table (every mapped line restored, epochs <= rec-epoch).
     * Returns an empty string on success.
     */
    static std::string validate(const Result &result,
                                const MnmBackend &backend);

    /** validate() restricted to tenant @p asid's lines. */
    static std::string validateTenant(const Result &result,
                                      const MnmBackend &backend,
                                      tenant::Asid asid);

  private:
    Result recoverFiltered(bool tenant_only, tenant::Asid asid) const;
    static std::string validateFiltered(const Result &result,
                                        const MnmBackend &backend,
                                        bool tenant_only,
                                        tenant::Asid asid);

    const MnmBackend &backend;
};

} // namespace nvo

#endif // NVO_NVOVERLAY_RECOVERY_HH
