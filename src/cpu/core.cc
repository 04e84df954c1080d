#include "cpu/core.hh"

#include "baselines/scheme.hh"
#include "common/log.hh"

namespace nvo
{

Core::Core(const Params &params, unsigned core_id, Hierarchy &hierarchy,
           RefSource &source, Scheme &scheme_, RunStats &run_stats)
    : p(params), coreId(core_id), hier(hierarchy), src(source),
      scheme(scheme_), stats(run_stats)
{
    nvo_assert(p.issueWidth > 0);
}

void
Core::runUntil(Cycle quantum_end)
{
    unsigned vd = hier.vdOfCore(coreId);
    while (localCycle < quantum_end) {
        if (pos >= queue.size()) {
            if (finished)
                return;
            queue.clear();
            pos = 0;
            if (!src.nextOp(coreId, queue)) {
                finished = true;
                return;
            }
            if (queue.empty()) {
                // The workload is momentarily blocked (e.g., lock
                // contention modelled without spin refs): idle a bit.
                localCycle += 64;
                continue;
            }
        }
        const MemRef &ref = queue[pos++];
        // Non-memory work retires at the issue width.
        localCycle += ref.gapInstrs / p.issueWidth;
        stats.instructions += ref.gapInstrs + 1;
        ++stats.refs;
        if (ref.isStore) {
            ++stats.stores;
            Cycle stall = scheme.onStore(coreId, vd,
                                         lineAlign(ref.addr),
                                         localCycle);
            stats.barrierStallCycles += stall;
            localCycle += stall;
            localCycle += hier.store(coreId, ref.addr,
                                     ref.hasData ? ref.data : nullptr,
                                     ref.size, localCycle);
        } else {
            ++stats.loads;
            localCycle += hier.load(coreId, ref.addr, localCycle);
        }
    }
}

} // namespace nvo
