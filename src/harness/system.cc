#include "harness/system.hh"

#include <algorithm>
#include <chrono>

#include "common/log.hh"
#include "mem/persist_domain.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "obs/ledger.hh"
#include "obs/trace.hh"
#include "policy/engine.hh"

namespace nvo
{

System::System(const Config &cfg, const std::string &scheme_name,
               const std::string &workload_name)
    : cfg_(cfg)
{
    // The workload thread count always matches the core count.
    cfg_.set("wl.threads", cfg_.getU64("sys.cores", 16));
    wl = makeWorkload(workload_name, cfg_);
    build(scheme_name);
}

System::System(const Config &cfg, const std::string &scheme_name,
               std::unique_ptr<WorkloadBase> workload)
    : cfg_(cfg), wl(std::move(workload))
{
    build(scheme_name);
}

System::~System() = default;

void
System::build(const std::string &scheme_name)
{
    unsigned num_cores =
        static_cast<unsigned>(cfg_.getU64("sys.cores", 16));
    unsigned cores_per_vd =
        static_cast<unsigned>(cfg_.getU64("sys.cores_per_vd", 2));
    unsigned num_vds = num_cores / cores_per_vd;
    nvo_assert(wl->params().numThreads == num_cores,
               "workload threads must match core count");

    quantum = cfg_.getU64("sys.quantum", 2000);

    // The metric registry must be (re)configured before any component
    // constructs: registration happens in constructors (master table,
    // page pool, ...), and configure() zeroes every
    // value and drops stale per-build gauges. Unlike the tracer and
    // ledger, which only export, this ordering is load-bearing.
    obs::metricRegistry().configure(cfg_);
    exporter_.configure(cfg_);

    // Device models.
    DramModel::Params dp;
    dp.channels =
        static_cast<unsigned>(cfg_.getU64("dram.channels", 4));
    dp.accessLatency = cfg_.getU64("dram.lat", 150);
    dram = std::make_unique<DramModel>(dp, &stats_);

    NvmModel::Params np;
    np.banks = static_cast<unsigned>(cfg_.getU64("nvm.banks", 64));
    np.writeOccupancy = cfg_.getU64("nvm.write_occupancy", 400);
    np.readLatency = cfg_.getU64("nvm.read_lat", 510);
    np.bufferBytes = cfg_.getU64("nvm.buffer_mb", 32) * 1024 * 1024;
    // Endurance model: has()-gated so runs without the key keep
    // their resolved-config dump (and stats JSON) byte-identical to
    // before the wear model existed.
    if (cfg_.has("nvm.wear.enabled") &&
        cfg_.getBool("nvm.wear.enabled", false)) {
        np.wearEnabled = true;
        np.wearRegionBytes =
            cfg_.getU64("nvm.wear.region_kb", 4) * 1024;
    }
    nvm_ = std::make_unique<NvmModel>(np, &stats_);
    // Crash campaigns arm the persist domain so durable mutations
    // journal undo records until the next barrier; plain performance
    // runs leave it disarmed (one branch per staged call site).
    if (cfg_.getBool("persist.armed", false))
        nvm_->persist().arm();

    // Hierarchy (Table II geometry by default).
    Hierarchy::Params hp;
    hp.numCores = num_cores;
    hp.coresPerVd = cores_per_vd;
    hp.numLlcSlices =
        static_cast<unsigned>(cfg_.getU64("sys.llc_slices", 4));
    hp.l1.sizeBytes = cfg_.getU64("l1.kb", 32) * 1024;
    hp.l1.ways = static_cast<unsigned>(cfg_.getU64("l1.ways", 8));
    hp.l1.latency = cfg_.getU64("l1.lat", 4);
    hp.l2.sizeBytes = cfg_.getU64("l2.kb", 256) * 1024;
    hp.l2.ways = static_cast<unsigned>(cfg_.getU64("l2.ways", 8));
    hp.l2.latency = cfg_.getU64("l2.lat", 8);
    std::uint64_t llc_total = cfg_.getU64("llc.mb", 32) * 1024 * 1024;
    hp.llc.sliceBytes = llc_total / hp.numLlcSlices;
    hp.llc.ways = static_cast<unsigned>(cfg_.getU64("llc.ways", 16));
    hp.llc.latency = cfg_.getU64("llc.lat", 30);
    hp.remoteSnoopLatency = cfg_.getU64("sys.snoop_lat", 40);

    if (cfg_.getBool("sys.noc", false)) {
        MeshNoc::Params np2;
        np2.numVds = num_vds;
        np2.numSlices = hp.numLlcSlices;
        np2.hopLatency = cfg_.getU64("noc.hop_lat", 3);
        np2.portLatency = cfg_.getU64("noc.port_lat", 2);
        noc = std::make_unique<MeshNoc>(np2);
        hp.noc = noc.get();
        hp.llcArrayLatency = cfg_.getU64("llc.array_lat", 10);
    }

    backing.setOidGranularity(static_cast<unsigned>(
        cfg_.getU64("sim.oid_granularity", 1)));
    hier = std::make_unique<Hierarchy>(hp, backing, *dram, stats_);

    if (cfg_.getBool("sim.track_writes", false)) {
        wtracker = std::make_unique<WriteTracker>();
        hier->setWriteTracker(wtracker.get());
    }

    // Scheme-specific derived defaults: the paper's "epoch size" is
    // global store *uops*; our workloads emit one reference per
    // touched line, which covers several store uops of real code
    // (e.g., a B+Tree leaf shift is a memmove of 8-byte stores), so
    // the nominal uop count is divided by epoch.uops_per_ref to get
    // the line-reference epoch length. NVOverlay further divides it
    // across VDs; the PiCL tag structures mirror the cache geometry.
    std::uint64_t epoch_stores =
        cfg_.getU64("epoch.stores_global", 1u << 20);
    std::uint64_t uops_per_ref = cfg_.getU64("epoch.uops_per_ref", 16);
    std::uint64_t epoch_refs = std::max<std::uint64_t>(
        1, epoch_stores / std::max<std::uint64_t>(1, uops_per_ref));
    if (!cfg_.has("epoch.stores_refs"))
        cfg_.setDerived("epoch.stores_refs", epoch_refs);
    if (!cfg_.has("nvo.stores_per_epoch_vd"))
        cfg_.setDerived(
            "nvo.stores_per_epoch_vd",
            std::max<std::uint64_t>(
                1, cfg_.getU64("epoch.stores_refs", epoch_refs) /
                       num_vds));
    if (!cfg_.has("picl.tag_bytes"))
        cfg_.setDerived("picl.tag_bytes", llc_total);
    if (!cfg_.has("picl.l2_tag_bytes"))
        cfg_.setDerived("picl.l2_tag_bytes",
                        hp.l2.sizeBytes * num_vds);
    if (!cfg_.has("mnm.num_omcs"))
        cfg_.setDerived("mnm.num_omcs",
                        static_cast<std::uint64_t>(hp.numLlcSlices));

    scheme_ = makeScheme(scheme_name, cfg_, *nvm_, stats_);
    scheme_->attach(*hier);

    Core::Params cp;
    cp.issueWidth =
        static_cast<unsigned>(cfg_.getU64("sys.issue_width", 4));
    for (unsigned c = 0; c < num_cores; ++c)
        cores.push_back(std::make_unique<Core>(cp, c, *hier, *wl,
                                               *scheme_, stats_));

    // Invariant sweeps (NVO_AUDIT builds): the hierarchy's structural
    // audit plus whatever protocol sweeps the scheme registers. Light
    // (epoch-scoped) sweeps run at every epoch boundary; full
    // structural sweeps every audit.stride quanta and at end of run.
    if (audit::enabled) {
        auditStride = cfg_.getU64("audit.stride", 64);
        Hierarchy *h = hier.get();
        auditor_.add("hierarchy", [h] { h->audit(); });
        scheme_->registerAudits(auditor_);
    }

    // Observability: the event tracer is a process-wide singleton, so
    // each freshly built System claims and clears it; the per-epoch
    // series snapshots cumulative RunStats counters at every epoch
    // boundary (consumers diff adjacent rows for per-epoch rates).
    obs::tracer().configure(cfg_);
    obs::ledger().configure(cfg_);
    seriesEnabled = cfg_.getBool("stats.series", true);
    if (seriesEnabled) {
        RunStats *s = &stats_;
        series_.addProbe("stores", [s] { return s->stores; });
        series_.addProbe("epoch_advances",
                         [s] { return s->epochAdvances; });
        series_.addProbe("lamport_advances",
                         [s] { return s->lamportAdvances; });
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(EvictReason::NumReasons);
             ++i) {
            series_.addProbe(
                std::string("evict_") +
                    toString(static_cast<EvictReason>(i)),
                [s, i] { return s->evictReason[i]; });
        }
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(NvmWriteKind::NumKinds);
             ++k) {
            series_.addProbe(
                std::string("nvm_write_bytes_") +
                    toString(static_cast<NvmWriteKind>(k)),
                [s, k] { return s->nvmWriteBytes[k]; });
        }
        series_.addProbe("nvm_write_ops",
                         [s] { return s->nvmWriteOps; });
        series_.addProbe("omc_buffer_hits",
                         [s] { return s->omcBufferHits; });
        series_.addProbe("omc_buffer_misses",
                         [s] { return s->omcBufferMisses; });
        series_.addProbe("master_table_bytes",
                         [s] { return s->masterTableBytes; });
        series_.addProbe("master_mapped_lines",
                         [s] { return s->masterMappedLines; });
        series_.addProbe("epoch_table_bytes",
                         [s] { return s->epochTableBytes; });
        series_.addProbe("pool_pages_in_use",
                         [s] { return s->poolPagesInUse; });
        series_.addProbe("gc_compactions",
                         [s] { return s->gcCompactions; });
        series_.addProbe("gc_bytes_copied",
                         [s] { return s->gcBytesCopied; });
        series_.addProbe("tag_walk_write_backs",
                         [s] { return s->tagWalkWriteBacks; });
        // Tenant aggregates live in stats.extra (per-ASID detail is
        // export-only); gated so untenanted series stay identical.
        if (cfg_.has("tenant.enabled") &&
            cfg_.getBool("tenant.enabled", false)) {
            series_.addProbe("tenant_throttle_stalls", [s] {
                auto it = s->extra.find("tenant_throttle_stalls");
                return it == s->extra.end() ? 0 : it->second;
            });
            series_.addProbe("tenant_quota_rejections", [s] {
                auto it = s->extra.find("tenant_quota_rejections");
                return it == s->extra.end() ? 0 : it->second;
            });
        }
        // Soak runs cap the series memory; the exporter notes the
        // decimation factor (has()-gated: unset keeps the series —
        // and its JSON — exactly as before the cap existed).
        if (cfg_.has("stats.series_max"))
            series_.setMaxRows(static_cast<std::size_t>(
                cfg_.getU64("stats.series_max", 0)));
    }

    // Adaptive policy engine (docs/POLICY.md). has()-gated: runs
    // without the key resolve no policy.* defaults, so their config
    // dump and stats JSON stay byte-identical.
    if (cfg_.has("policy.enabled") &&
        cfg_.getBool("policy.enabled", false)) {
        auto *nvo_scheme =
            dynamic_cast<NVOverlayScheme *>(scheme_.get());
        if (nvo_scheme)
            policy_ = std::make_unique<policy::PolicyEngine>(
                *nvo_scheme, stats_,
                policy::Params::fromConfig(cfg_));
    }
}

void
System::auditNow()
{
    if (!audit::enabled)
        return;
    auditor_.runAll();
    quantaSinceAudit = 0;
    epochsAtLastAudit = scheme_->epochsCompleted();
}

void
System::stepQuantum()
{
    quantumEnd += quantum;
    obs::tracer().setNow(quantumEnd);
    for (auto &core : cores)
        core->runUntil(quantumEnd);
    scheme_->tick(quantumEnd);
    if (Cycle gs = scheme_->takeGlobalStall()) {
        for (auto &core : cores)
            core->addStall(gs);
        stats_.barrierStallCycles += gs;
    }

    if ((seriesEnabled || exporter_.enabled() || policy_) &&
        scheme_->epochsCompleted() != epochsAtLastSample) {
        // Derived aggregates (table/pool sizes) are refreshed lazily;
        // pull them up to date so the sampled row is consistent.
        scheme_->updateStats();
        if (seriesEnabled)
            series_.sample(scheme_->globalEpoch(), quantumEnd);
        exporter_.onEpochBoundary(scheme_->globalEpoch(), quantumEnd);
        // Policy evaluation runs after the sample/export, so the
        // recorded row reflects the epoch as it actually ran and the
        // actuation applies from the next epoch on.
        if (policy_)
            policy_->onEpochBoundary(quantumEnd);
        epochsAtLastSample = scheme_->epochsCompleted();
    }

    if (audit::enabled) {
        ++quantaSinceAudit;
        bool epoch_boundary =
            scheme_->epochsCompleted() != epochsAtLastAudit;
        bool stride_hit =
            auditStride != 0 && quantaSinceAudit >= auditStride;
        if (stride_hit) {
            auditNow();
        } else if (epoch_boundary) {
            // Epochs can advance every quantum, so the boundary pass
            // is restricted to the Light (O(#VDs)) sweeps; the full
            // structural walk waits for the stride.
            auditor_.runLight();
            epochsAtLastAudit = scheme_->epochsCompleted();
        }
    }
}

bool
System::done() const
{
    for (const auto &core : cores)
        if (!core->done())
            return false;
    return true;
}

bool
System::runUntil(Cycle limit)
{
    while (!done() && quantumEnd < limit)
        stepQuantum();
    stats_.cycles = quantumEnd;
    return done();
}

void
System::run()
{
    // Phase self-profiling: host wall clock split between the
    // execution loop and the shutdown flush, reported through
    // stats.extra so slow runs are attributable without a profiler.
    using SteadyClock = std::chrono::steady_clock;
    auto host_us = [](SteadyClock::time_point a,
                      SteadyClock::time_point b) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(b -
                                                                  a)
                .count());
    };
    auto t0 = SteadyClock::now();

    NVO_TRACE(Harness, Phase, obs::trackSim, quantumEnd,
              static_cast<std::uint64_t>(obs::PhaseId::RunBegin), 0);
    while (!done())
        stepQuantum();
    nvo_assert(!finalized, "run() called twice");
    finalized = true;
    auto t1 = SteadyClock::now();

    Cycle max_core = 0;
    for (const auto &core : cores)
        max_core = std::max(max_core, core->cycle());

    // The paper's normalized-cycles metric is execution wall clock;
    // the post-run drain is a shutdown artifact reported separately.
    NVO_TRACE(Harness, Phase, obs::trackSim, quantumEnd,
              static_cast<std::uint64_t>(obs::PhaseId::FinalizeBegin),
              0);
    Cycle flush_done = scheme_->finalize(std::max(max_core, quantumEnd));
    stats_.cycles = max_core;
    stats_.extra["finalize_drain_cycles"] =
        flush_done > max_core ? flush_done - max_core : 0;
    NVO_TRACE(Harness, Phase, obs::trackSim, flush_done,
              static_cast<std::uint64_t>(obs::PhaseId::FinalizeEnd),
              0);

    // Close the metric series with a post-finalize row: the final
    // epoch's evictions and the shutdown flush land here (forced
    // past any decimation cap so the closing row always exists).
    scheme_->updateStats();
    if (seriesEnabled)
        series_.sampleForced(scheme_->globalEpoch(), flush_done);
    exporter_.finalExport(scheme_->globalEpoch(), flush_done);
    if (policy_)
        policy_->exportStats(stats_);
    nvm_->exportWear(stats_);

    auto t2 = SteadyClock::now();
    stats_.extra["host_run_us"] = host_us(t0, t1);
    stats_.extra["host_finalize_us"] = host_us(t1, t2);

    // Everything is quiescent after finalize; a full sweep here
    // catches anything the periodic sweeps missed.
    auditNow();
}

} // namespace nvo
