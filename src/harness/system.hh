/**
 * @file
 * Full-system assembly: backing store, DRAM/NVM device models, cache
 * hierarchy, cores, snapshot scheme, and workload, built from one
 * Config (defaults follow Table II) and driven with a bound-and-weave
 * quantum loop.
 */

#ifndef NVO_HARNESS_SYSTEM_HH
#define NVO_HARNESS_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "baselines/scheme.hh"
#include "cache/hierarchy.hh"
#include "cache/noc.hh"
#include "common/audit.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "mem/backing_store.hh"
#include "mem/dram_model.hh"
#include "mem/nvm_model.hh"
#include "mem/write_tracker.hh"
#include "obs/metrics.hh"
#include "obs/registry.hh"
#include "workload/workload.hh"

namespace nvo
{

namespace policy
{
class PolicyEngine;
} // namespace policy

class System
{
  public:
    /**
     * Build a system running @p workload_name under @p scheme_name.
     * Config keys (all optional; defaults are Table II):
     *   sys.cores, sys.cores_per_vd, sys.llc_slices, sys.quantum
     *   l1.kb/l1.ways/l1.lat, l2.kb/l2.ways/l2.lat,
     *   llc.mb/llc.ways/llc.lat
     *   dram.channels, nvm.banks/nvm.write_occupancy/nvm.read_lat/
     *   nvm.queue_depth
     *   epoch.stores_global (1M store uops, Sec. VI-B)
     *   sim.track_writes (enable the verification tracker)
     *   audit.stride (run full invariant sweeps every N quanta when
     *   the build compiles audits in; 0 disables periodic full
     *   sweeps; epoch boundaries always run the light epoch-scoped
     *   sweeps)
     *   trace.enabled / trace.cats / trace.ring (event tracer; the
     *   global tracer is reconfigured and cleared at build time)
     *   stats.series (sample the per-epoch metric series at every
     *   epoch boundary; default on)
     *   wl.* (workload sizing), nvo.* / mnm.* / picl.* / sw.*
     */
    System(const Config &cfg, const std::string &scheme_name,
           const std::string &workload_name);

    /** Variant with an injected workload (tests). */
    System(const Config &cfg, const std::string &scheme_name,
           std::unique_ptr<WorkloadBase> workload);

    ~System();

    /** Run to completion and finalize the scheme. */
    void run();

    /**
     * Run until the global clock reaches @p limit (a simulated crash
     * point when the workload has not finished). Returns true when
     * the workload completed before the limit. No finalize.
     */
    bool runUntil(Cycle limit);

    bool done() const;
    Cycle now() const { return quantumEnd; }

    RunStats &stats() { return stats_; }
    const RunStats &stats() const { return stats_; }
    Hierarchy &hierarchy() { return *hier; }
    Scheme &scheme() { return *scheme_; }
    NvmModel &nvm() { return *nvm_; }
    BackingStore &memory() { return backing; }
    WorkloadBase &workload() { return *wl; }
    WriteTracker *tracker() { return wtracker.get(); }
    const Config &config() const { return cfg_; }

    /** Run every registered invariant sweep once (no-op when the
     *  build compiles audits out). */
    void auditNow();

    Auditor &auditor() { return auditor_; }

    /** Per-epoch metric time series sampled at epoch boundaries. */
    const obs::EpochSeries &epochSeries() const { return series_; }

    /** The adaptive policy engine, or nullptr unless
     *  `policy.enabled=1` and the scheme is nvoverlay. */
    policy::PolicyEngine *policyEngine() { return policy_.get(); }
    const policy::PolicyEngine *policyEngine() const
    {
        return policy_.get();
    }

  private:
    void build(const std::string &scheme_name);
    void stepQuantum();

    Config cfg_;
    RunStats stats_;
    BackingStore backing;
    std::unique_ptr<WriteTracker> wtracker;
    std::unique_ptr<DramModel> dram;
    std::unique_ptr<NvmModel> nvm_;
    std::unique_ptr<WorkloadBase> wl;
    std::unique_ptr<Scheme> scheme_;
    std::unique_ptr<MeshNoc> noc;
    std::unique_ptr<Hierarchy> hier;
    std::vector<std::unique_ptr<Core>> cores;
    Cycle quantum;
    Cycle quantumEnd = 0;
    bool finalized = false;
    Auditor auditor_;
    std::uint64_t auditStride = 0;
    std::uint64_t quantaSinceAudit = 0;
    std::uint64_t epochsAtLastAudit = 0;

    obs::EpochSeries series_;
    bool seriesEnabled = true;
    std::uint64_t epochsAtLastSample = 0;
    /** Periodic Prometheus/JSONL metric exports (obs/registry.hh). */
    obs::MetricExporter exporter_;
    /** Adaptive policy engine (src/policy); null unless enabled. */
    std::unique_ptr<policy::PolicyEngine> policy_;
};

} // namespace nvo

#endif // NVO_HARNESS_SYSTEM_HH
