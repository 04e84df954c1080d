/**
 * @file
 * Hardware shadow paging baseline, ThyNVM-like (paper Sec. VI-B,
 * "HW Shadow").
 *
 * Three-version cache-line-granularity shadowing: persistence of the
 * previous epoch's write set overlaps with execution of the current
 * epoch (background NVM writes), but the centralized mapping table is
 * updated synchronously at every epoch boundary, and a boundary
 * cannot start until the previous epoch's persist completed — these
 * two serializations are what make it slower than NVOverlay while
 * writing slightly fewer bytes (each dirty line exactly once per
 * epoch).
 */

#ifndef NVO_BASELINES_HW_SHADOW_HH
#define NVO_BASELINES_HW_SHADOW_HH

#include <unordered_set>

#include "baselines/scheme.hh"
#include "mem/nvm_model.hh"

namespace nvo
{

class HwShadowScheme : public Scheme
{
  public:
    HwShadowScheme(const Config &cfg, NvmModel &nvm_model,
                   RunStats &run_stats);

    const char *name() const override { return "hwshadow"; }
    Cycle onStore(unsigned core, unsigned vd, Addr line_addr,
                  Cycle now) override;
    Cycle finalize(Cycle now) override;

  private:
    Cycle epochBoundary(Cycle now);

    NvmModel &nvm;
    RunStats &stats;
    unsigned shadowSlot = 0;   ///< rotates over three versions
    Cycle prevPersistDone = 0;
    Addr mapCursor = 0;
    std::unordered_set<Addr> dirtyLines;
};

} // namespace nvo

#endif // NVO_BASELINES_HW_SHADOW_HH
