/**
 * @file
 * Software undo logging baseline (paper Sec. VI-B, "SW Logging").
 *
 * Before the first write to a cache line in an epoch, the library
 * synchronously writes a 72-byte undo entry (64 B old data + 8 B tag)
 * to NVM behind a persist barrier — the storing core stalls for the
 * full device write. At every epoch boundary the tracked write set is
 * flushed synchronously. Write amplification: log + data.
 */

#ifndef NVO_BASELINES_SW_LOG_HH
#define NVO_BASELINES_SW_LOG_HH

#include <unordered_set>

#include "baselines/scheme.hh"
#include "mem/nvm_model.hh"

namespace nvo
{

class SwLogScheme : public Scheme
{
  public:
    SwLogScheme(const Config &cfg, NvmModel &nvm_model,
                RunStats &run_stats);

    const char *name() const override { return "swlog"; }
    Cycle onStore(unsigned core, unsigned vd, Addr line_addr,
                  Cycle now) override;
    Cycle finalize(Cycle now) override;

  private:
    /** Synchronous epoch-boundary flush of the write set. */
    Cycle flushEpoch(Cycle now);

    NvmModel &nvm;
    RunStats &stats;
    Addr logCursor;
    std::unordered_set<Addr> loggedLines;
};

} // namespace nvo

#endif // NVO_BASELINES_SW_LOG_HH
