/**
 * @file
 * PiCL baseline (Nguyen & Wentzlaff, MICRO'18), plus the PiCL-L2
 * variant (paper Sec. VI-B).
 *
 * Hardware undo logging: an OID-tagged inclusive cache detects the
 * first store to a line in each epoch and emits a 72-byte undo log
 * entry to NVM in the background; after an epoch ends, a tag walker
 * (ACS) writes the previous epoch's dirty lines back to NVM. Both
 * log and data reach the device, giving ~2x write amplification.
 * PiCL needs an inclusive monolithic LLC for its tags; PiCL-L2 runs
 * the same mechanism at the (much smaller) combined L2 level,
 * modelling large multicores without an inclusive LLC — a smaller
 * on-chip version working set means more evictions and log writes.
 *
 * Epochs are globally synchronized; as in the paper's methodology,
 * the cost of reaching that consensus is ignored and only the data
 * path is modelled.
 */

#ifndef NVO_BASELINES_PICL_HH
#define NVO_BASELINES_PICL_HH

#include <deque>

#include "baselines/scheme.hh"
#include "cache/cache_array.hh"
#include "mem/nvm_model.hh"

namespace nvo
{

class PiclScheme : public Scheme
{
  public:
    PiclScheme(const Config &cfg, NvmModel &nvm_model,
               RunStats &run_stats, bool l2_level);

    const char *name() const override
    {
        return l2Level ? "picl-l2" : "picl";
    }
    Cycle onStore(unsigned core, unsigned vd, Addr line_addr,
                  Cycle now) override;
    void tick(Cycle now) override;
    Cycle finalize(Cycle now) override;

    std::uint64_t drainBacklog() const { return drainQueue.size(); }

  private:
    /** Emit one undo log entry (background). */
    Cycle writeLog(Cycle now);

    /** Write one line of snapshot data back to NVM (background). */
    Cycle writeData(Addr line_addr, Cycle now, EvictReason why);

    /** Schedule the ACS tag walk after an epoch ends. */
    void scheduleWalk();

    NvmModel &nvm;
    RunStats &stats;
    bool l2Level;
    bool walkerEnabled;
    unsigned drainPerTick;
    Addr logCursor = 0;
    CacheArray tags;
    std::deque<Addr> drainQueue;
};

} // namespace nvo

#endif // NVO_BASELINES_PICL_HH
