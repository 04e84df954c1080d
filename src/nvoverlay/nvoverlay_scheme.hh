/**
 * @file
 * NVOverlay scheme facade: wires the CST frontend (versioned domains,
 * Lamport epoch synchronization, tag walkers) to the MNM backend
 * (OMCs). Implements both the Scheme interface the System drives and
 * the VersionCtrl interface the cache hierarchy calls into.
 */

#ifndef NVO_NVOVERLAY_NVOVERLAY_SCHEME_HH
#define NVO_NVOVERLAY_NVOVERLAY_SCHEME_HH

#include <memory>
#include <vector>

#include "baselines/scheme.hh"
#include "cache/version_ctrl.hh"
#include "common/config.hh"
#include "nvoverlay/epoch.hh"
#include "nvoverlay/omc.hh"
#include "nvoverlay/tag_walker.hh"
#include "nvoverlay/versioned_domain.hh"
#include "repl/replicator.hh"
#include "tenant/tenant.hh"

namespace nvo
{

class NVOverlayScheme : public Scheme, public VersionCtrl
{
  public:
    NVOverlayScheme(const Config &cfg, NvmModel &nvm_model,
                    RunStats &run_stats);
    ~NVOverlayScheme() override;

    // --- Scheme interface ---
    const char *name() const override { return "nvoverlay"; }
    void attach(Hierarchy &hierarchy) override;
    Cycle onStore(unsigned core, unsigned vd, Addr line_addr,
                  Cycle now) override;
    void tick(Cycle now) override;
    Cycle finalize(Cycle now) override;
    EpochWide globalEpoch() const override;
    std::uint64_t epochsCompleted() const override;
    void updateStats() override;

    /**
     * Register the NVOverlay protocol sweeps: inter-VD skew below
     * half the 16-bit epoch space (Sec. IV-D), per-VD min-ver never
     * ahead of the VD's epoch, the walkers' queue discipline, and
     * the full MNM backend audit.
     */
    void registerAudits(Auditor &auditor) override;

    // --- VersionCtrl interface ---
    EpochWide vdEpoch(unsigned vd) const override;
    Cycle observeRemoteVersion(unsigned vd, EpochWide rv,
                               Cycle now) override;
    Cycle acceptVersion(unsigned vd, Addr line_addr, EpochWide oid,
                        SeqNo seq, const LineData &content,
                        EvictReason why, Cycle now) override;

    // --- NVOverlay-specific controls ---

    /** Change the per-VD epoch length mid-run (bursty epochs). */
    void setStoresPerEpochVd(std::uint64_t stores)
    {
        storesPerEpochVd = stores;
    }

    std::uint64_t storesPerEpochVdValue() const
    {
        return storesPerEpochVd;
    }

    /** Force every VD to start a new epoch (watch-point snapshot). */
    Cycle advanceAll(Cycle now);

    MnmBackend &backend() { return *backend_; }
    const MnmBackend &backend() const { return *backend_; }

    /** Replication bundle; nullptr unless `repl.enabled=1`. */
    repl::Replicator *replicator() { return repl_.get(); }

    const VersionedDomain &domain(unsigned vd) const
    {
        return vds[vd];
    }
    TagWalker &walker(unsigned vd) { return *walkers[vd]; }
    unsigned numVds() const
    {
        return static_cast<unsigned>(vds.size());
    }
    const EpochSenseTracker &senseTracker() const { return *sense; }

  private:
    Cycle advanceVd(unsigned vd, EpochWide target, bool lamport,
                    Cycle now);

    NvmModel &nvm;
    RunStats &stats;

    // Config-derived parameters.
    std::uint64_t storesPerEpochVd;
    Cycle advanceStallCycles;
    std::uint32_t contextBytesPerCore;
    bool walkerEnabled;
    unsigned walkerLinesPerTick;
    MnmBackend::Params mnmParams;
    bool replEnabled = false;
    repl::Replicator::Params replParams;
    bool tenantEnabled = false;
    tenant::TenantManager::Params tenantParams;

    std::vector<VersionedDomain> vds;
    std::vector<std::unique_ptr<TagWalker>> walkers;
    // Declared before backend_: the backend holds a raw pointer to
    // the manager, so the manager must outlive it.
    std::unique_ptr<tenant::TenantManager> tm_;
    std::unique_ptr<MnmBackend> backend_;
    // Declared after backend_: the replicator detaches its ReplSink
    // from the backend on destruction, so it must die first.
    std::unique_ptr<repl::Replicator> repl_;
    std::unique_ptr<EpochSenseTracker> sense;
    unsigned coresPerVd = 1;
};

} // namespace nvo

#endif // NVO_NVOVERLAY_NVOVERLAY_SCHEME_HH
