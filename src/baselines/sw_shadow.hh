/**
 * @file
 * Software shadow paging baseline (paper Sec. VI-B, "SW Shadow").
 *
 * Romulus-style: software tracks the transaction write set, flushes
 * dirty lines to shadow locations and synchronously updates a
 * persistent mapping table behind a barrier at every transaction
 * boundary — the next transaction cannot start before the previous
 * one is durable. No log: data is written once, plus mapping
 * metadata.
 */

#ifndef NVO_BASELINES_SW_SHADOW_HH
#define NVO_BASELINES_SW_SHADOW_HH

#include <unordered_set>

#include "baselines/scheme.hh"
#include "mem/nvm_model.hh"

namespace nvo
{

class SwShadowScheme : public Scheme
{
  public:
    SwShadowScheme(const Config &cfg, NvmModel &nvm_model,
                   RunStats &run_stats);

    const char *name() const override { return "swshadow"; }
    Cycle onStore(unsigned core, unsigned vd, Addr line_addr,
                  Cycle now) override;
    Cycle finalize(Cycle now) override;

  private:
    /** Synchronous transaction-boundary flush. */
    Cycle flushTxn(Cycle now);

    NvmModel &nvm;
    RunStats &stats;
    std::uint64_t txnStores;
    std::uint64_t storesThisTxn = 0;
    bool shadowSide = false;   ///< ping-pong shadow region
    Addr mapCursor = 0;
    std::unordered_set<Addr> txnDirty;
};

} // namespace nvo

#endif // NVO_BASELINES_SW_SHADOW_HH
