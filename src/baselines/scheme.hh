/**
 * @file
 * Snapshot-scheme interface. A Scheme models how dirty data becomes
 * persistent on NVM: NVOverlay (CST + MNM), the logging and shadowing
 * baselines of Sec. VI-B, or the no-snapshotting baseline.
 */

#ifndef NVO_BASELINES_SCHEME_HH
#define NVO_BASELINES_SCHEME_HH

#include <memory>
#include <string>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace nvo
{

class Auditor;
class Hierarchy;
class NvmModel;

class Scheme
{
  public:
    virtual ~Scheme() = default;

    virtual const char *name() const = 0;

    /** Bind the hierarchy once the System has built it. */
    virtual void attach(Hierarchy &hierarchy) { hier = &hierarchy; }

    /**
     * Called before every store commits. Implementations track write
     * sets, emit log entries, and advance epochs. Returns stall
     * cycles charged to the storing core (persist barriers).
     */
    virtual Cycle onStore(unsigned core, unsigned vd, Addr line_addr,
                          Cycle now) = 0;

    /** Background processing once per quantum (walkers, merges). */
    virtual void tick(Cycle now) { (void)now; }

    /**
     * Clean end of run: flush outstanding state so the final epoch
     * becomes persistent. Returns the cycle at which everything is
     * durable.
     */
    virtual Cycle finalize(Cycle now) { return now; }

    /** Scheme's notion of the current (global) epoch. */
    virtual EpochWide globalEpoch() const { return epoch_; }

    /** Epochs completed so far (for experiment bookkeeping). The
     *  global clock starts at epoch 1; a scheme that never starts it
     *  (none) stays at epoch 0 with none completed. */
    virtual std::uint64_t
    epochsCompleted() const
    {
        return epoch_ ? epoch_ - 1 : 0;
    }

    /** Global epoch length in stores. NVOverlay paces each VD on its
     *  own (`nvo.stores_per_epoch_vd`) and never reads it. */
    std::uint64_t storesPerEpoch() const { return storesPerEpoch_; }

    /** Change the epoch length mid-run (bursty-epoch experiment). */
    void setStoresPerEpoch(std::uint64_t stores)
    {
        storesPerEpoch_ = stores;
    }

    /**
     * Refresh derived RunStats aggregates (table sizes, pool usage)
     * from live structures. The harness calls this before sampling
     * the per-epoch metric series and before printing final stats;
     * schemes without derived aggregates need nothing.
     */
    virtual void updateStats() {}

    /**
     * Register this scheme's invariant sweeps (NVO_AUDIT) with the
     * System's auditor. The default registers nothing; schemes with
     * protocol state (NVOverlay) add their own sweeps.
     */
    virtual void registerAudits(Auditor &auditor) { (void)auditor; }

    /**
     * Drain the pending system-wide stall (epoch-boundary flushes
     * stall every core, not just the one whose store crossed the
     * boundary). The System applies it to all cores each quantum.
     */
    Cycle
    takeGlobalStall()
    {
        Cycle s = globalStallPending;
        globalStallPending = 0;
        return s;
    }

  protected:
    void addGlobalStall(Cycle s) { globalStallPending += s; }

    /** Start the global epoch clock the baselines share: epoch 1,
     *  closed every `epoch.stores_refs` stores. */
    void
    startEpochClock(const Config &cfg)
    {
        epoch_ = 1;
        storesPerEpoch_ = cfg.getU64("epoch.stores_refs", 1u << 17);
    }

    /** Count one store against the clock. Returns true when it closes
     *  the epoch; globalEpoch() is then already the next one. */
    bool
    storeClosesEpoch()
    {
        if (++storesThisEpoch_ < storesPerEpoch_)
            return false;
        advanceEpoch();
        return true;
    }

    /** Close the current epoch (also the end-of-run flush). */
    void
    advanceEpoch()
    {
        storesThisEpoch_ = 0;
        ++epoch_;
    }

    Hierarchy *hier = nullptr;
    Cycle globalStallPending = 0;

  private:
    EpochWide epoch_ = 0;
    std::uint64_t storesPerEpoch_ = 0;
    std::uint64_t storesThisEpoch_ = 0;
};

/**
 * Factory: build a scheme by name. Valid names: "none", "nvoverlay",
 * "swlog", "swshadow", "hwshadow", "picl", "picl-l2".
 */
std::unique_ptr<Scheme> makeScheme(const std::string &name,
                                   const Config &cfg, NvmModel &nvm,
                                   RunStats &stats);

/** The no-snapshotting baseline (ideal NVM system of Fig. 11). */
class NullScheme : public Scheme
{
  public:
    const char *name() const override { return "none"; }

    Cycle
    onStore(unsigned, unsigned, Addr, Cycle) override
    {
        return 0;
    }
};

} // namespace nvo

#endif // NVO_BASELINES_SCHEME_HH
