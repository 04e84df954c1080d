#include "fault/crash_sim.hh"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/log.hh"
#include "common/rng.hh"
#include "fault/fault.hh"
#include "harness/system.hh"
#include "mem/persist_domain.hh"
#include "mem/write_tracker.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "nvoverlay/recovery.hh"
#include "obs/trace.hh"
#include "par/procpool.hh"

namespace nvo
{
namespace fault
{

CrashReport
crashAndRecover(System &sys)
{
    auto *scheme = dynamic_cast<NVOverlayScheme *>(&sys.scheme());
    nvo_assert(scheme != nullptr,
               "crash recovery needs scheme=nvoverlay");
    const WriteTracker *tracker = sys.tracker();
    nvo_assert(tracker != nullptr,
               "crash recovery checks need sim.track_writes");
    MnmBackend &backend = scheme->backend();
    backend.crashReset();

    CrashReport report;
    RecoveryManager rm(backend);
    auto result = rm.recover();
    report.recEpoch = result.recEpoch;
    report.linesRestored = result.linesRestored;
    report.error = RecoveryManager::validate(result, backend);

    // Byte-exact shadow verification: every tracked line must carry
    // the content of its last store at or before the recovered
    // rec-epoch — unless, on an armed run, that store never reached
    // the backend (the tolerated in-flight window, see file header).
    const bool armed = sys.nvm().persist().armed();
    for (Addr line : tracker->trackedLines()) {
        auto expect = tracker->expectedEntry(line, result.recEpoch);
        if (!expect)
            continue;
        LineData got;
        result.image->readLine(line, got);
        ++report.linesChecked;
        if (got.digest() == expect->digest)
            continue;
        if (armed && backend.ackedEpoch(line) < expect->epoch) {
            ++report.inflightSkips;
            continue;
        }
        ++report.mismatches;
    }

    if (repl::Replicator *rep = scheme->replicator()) {
        const EpochWide durable = rep->shipper().durableCursor();
        const std::uint64_t reshipped =
            rep->shipper().resume(sys.now());
        rep->drain(sys.now());
        rep->exportStats();
        repl::Replicator::VerifyReport standby =
            rep->verify(*tracker, armed);
        standby.durableCursor = durable;
        standby.reshipped = reshipped;
        report.standby = standby;
    }
    return report;
}

CrashSimulator::CrashSimulator(const Config &cfg, std::string scheme,
                               std::string workload)
    : cfg_(cfg), scheme_(std::move(scheme)),
      workload_(std::move(workload))
{
}

CrashReport
CrashSimulator::run(const CrashPlan &plan)
{
    Config cfg = cfg_;
    cfg.set("sim.track_writes", "true");
    cfg.set("persist.armed", "true");
    // trace.crash_out: keep the tracer recording so the ring can be
    // flushed after the crash instead of dying with it.
    std::string crash_trace = cfg.getStr("trace.crash_out", "");
    if (!crash_trace.empty() && !cfg.has("trace.enabled"))
        cfg.set("trace.enabled", "true");
    System sys(cfg, scheme_, workload_);

    CrashReport fired;
    if (!plan.point.empty()) {
        nvo_assert(enabled, "point-based crash plans need a build "
                            "with NVO_FAULT=ON");
        FaultPlan fp;
        fp.crashAt(plan.point, plan.hit);
        ScopedPlan armed(std::move(fp));
        try {
            // If the plan never fires the run completes with a clean
            // finalize; the crash below then truncates nothing and
            // verification checks the final image.
            sys.run();
        } catch (const CrashFault &crash) {
            fired.crashed = true;
            fired.firedPoint = crash.point;
            fired.firedHit = crash.hit;
        }
    } else if (sys.runUntil(plan.cycle)) {
        // The run ended before the cut: finish it as a point-mode
        // plan that never fires does, with a clean finalize.
        sys.run();
    } else {
        // Power cut at a planned cycle: stop mid-run, no finalize.
        fired.crashed = true;
        fired.firedPoint = "cycle";
        fired.firedHit = plan.cycle;
    }

    CrashReport report = crashAndRecover(sys);
    report.crashed = fired.crashed;
    report.firedPoint = std::move(fired.firedPoint);
    report.firedHit = fired.firedHit;

    // Flush after verification so crash, rebuild, and recovery
    // events all land in the exported trace.
    if (report.crashed && !crash_trace.empty()) {
        std::ofstream os(crash_trace);
        if (os) {
            obs::tracer().exportChrome(os);
            inform("crash trace (%zu events) -> %s",
                   obs::tracer().size(), crash_trace.c_str());
        } else {
            warn("cannot open trace.crash_out file '%s'",
                 crash_trace.c_str());
        }
    }
    return report;
}

namespace
{

struct Probe
{
    /** (fault point, hits observed over a full run). */
    std::vector<std::pair<std::string, std::uint64_t>> points;
    Cycle cycles = 0;
};

Probe
probeWorkload(const Config &base_cfg, const std::string &scheme,
              const std::string &workload)
{
    Probe probe;
    Config cfg = base_cfg;
    cfg.set("sim.track_writes", "true");
    System sys(cfg, scheme, workload);
    if (enabled) {
        registry().setCounting(true);
        sys.run();
        registry().setCounting(false);
        for (const auto &kv : registry().allHits())
            probe.points.emplace_back(kv.first, kv.second);
        registry().resetCounters();
    } else {
        sys.run();
    }
    probe.cycles = sys.now();
    return probe;
}

std::string
reproLine(const CampaignParams &params, const std::string &workload,
          const CrashPlan &plan)
{
    std::string line = "nvo_sim scheme=" + params.scheme +
                       " workload=" + workload;
    if (plan.point.empty()) {
        line += " crash_cycle=" + std::to_string(plan.cycle);
    } else {
        line += " crash_point=" + plan.point +
                " crash_hit=" + std::to_string(plan.hit);
    }
    return line;
}

/** Bisect toward the earliest still-failing trigger of the plan. */
CrashPlan
minimizePlan(const Config &base_cfg, const CampaignParams &params,
             const std::string &workload, CrashPlan plan)
{
    auto fails = [&](const CrashPlan &candidate) {
        CrashSimulator sim(base_cfg, params.scheme, workload);
        return !sim.run(candidate).consistent();
    };
    bool cycle_mode = plan.point.empty();
    std::uint64_t lo = 1;
    std::uint64_t hi = cycle_mode ? plan.cycle : plan.hit;
    std::uint64_t best = hi;
    while (lo < hi) {
        std::uint64_t mid = lo + (hi - lo) / 2;
        CrashPlan candidate = plan;
        if (cycle_mode)
            candidate.cycle = mid;
        else
            candidate.hit = mid;
        if (fails(candidate)) {
            best = mid;
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if (cycle_mode)
        plan.cycle = best;
    else
        plan.hit = best;
    return plan;
}

/** What a campaign worker ships back per trial (par::forkMapOf):
 *  the CrashReport fields the parent prints and tallies, without its
 *  two strings. A trial can only crash at its own plan's point, so
 *  the parent names that point from the plan. */
struct TrialSummary
{
    bool crashed = false;
    bool consistent = false;
    std::uint64_t firedHit = 0;
    EpochWide recEpoch = 0;
    std::uint64_t linesChecked = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t inflightSkips = 0;
    std::optional<repl::Replicator::VerifyReport> standby;
};

} // namespace

CampaignResult
runCrashCampaign(const Config &base_cfg, const CampaignParams &params)
{
    CampaignResult res;
    nvo_assert(!params.workloads.empty(),
               "crash campaign needs at least one workload");
    nvo_assert(params.trials > 0);

    // Bulk trials run untraced; the minimized failing plan is
    // re-run with tracing at the end so the exported ring matches
    // the printed repro, not whichever trial crashed last.
    std::string crash_trace =
        base_cfg.getStr("trace.crash_out", "");
    Config trial_cfg = base_cfg;
    trial_cfg.set("trace.crash_out", "");

    std::vector<Probe> probes;
    for (const auto &workload : params.workloads) {
        Probe probe =
            probeWorkload(trial_cfg, params.scheme, workload);
        inform("crash-campaign: probe %s: %zu fault points, %llu "
               "cycles",
               workload.c_str(), probe.points.size(),
               static_cast<unsigned long long>(probe.cycles));
        probes.push_back(std::move(probe));
    }

    // Every plan is drawn in the parent before any trial runs. The
    // trials themselves never touch the Rng, so this produces the
    // exact plan stream of the historical draw-then-run loop — and
    // makes the stream independent of how trials are scheduled
    // across worker processes.
    Rng rng(params.seed);
    std::vector<CrashPlan> plans;
    for (unsigned t = 0; t < params.trials; ++t) {
        const Probe &probe =
            probes[t % static_cast<unsigned>(params.workloads.size())];
        CrashPlan plan;
        if (enabled && !probe.points.empty()) {
            const auto &pt =
                probe.points[rng.below(probe.points.size())];
            plan.point = pt.first;
            plan.hit = 1 + rng.below(std::max<std::uint64_t>(
                               pt.second, 1));
        } else {
            plan.cycle =
                1 + rng.below(std::max<Cycle>(probe.cycles, 2) - 1);
        }
        plans.push_back(std::move(plan));
    }

    const std::vector<TrialSummary> trials = par::forkMapOf(
        params.trials, params.jobs,
        [&](unsigned t) {
            unsigned wi =
                t % static_cast<unsigned>(params.workloads.size());
            CrashSimulator sim(trial_cfg, params.scheme,
                               params.workloads[wi]);
            const CrashReport rep = sim.run(plans[t]);
            return TrialSummary{rep.crashed,      rep.consistent(),
                                rep.firedHit,     rep.recEpoch,
                                rep.linesChecked, rep.mismatches,
                                rep.inflightSkips, rep.standby};
        },
        // Children stay silent; the parent prints every per-trial
        // line below, in trial order, whatever the job count.
        [](unsigned) { setQuiet(true); });

    for (unsigned t = 0; t < params.trials; ++t) {
        unsigned wi =
            t % static_cast<unsigned>(params.workloads.size());
        const std::string &workload = params.workloads[wi];
        const TrialSummary &rep = trials[t];
        const char *point = "completed";
        if (rep.crashed)
            point = plans[t].point.empty() ? "cycle"
                                           : plans[t].point.c_str();
        ++res.trials;
        if (rep.crashed)
            ++res.crashes;
        res.linesChecked += rep.linesChecked;
        res.inflightSkips += rep.inflightSkips;
        std::string standby;
        if (rep.standby)
            standby = " standby-epoch=" +
                      std::to_string(rep.standby->appliedRec) +
                      " standby-reads=" +
                      std::to_string(rep.standby->linesChecked) +
                      " standby-mismatches=" +
                      std::to_string(rep.standby->mismatches);
        inform("crash-campaign: trial %u/%u %s @ %s:%llu "
               "rec-epoch=%llu checked=%llu mismatches=%llu "
               "skips=%llu%s%s",
               t + 1, params.trials, workload.c_str(), point,
               static_cast<unsigned long long>(rep.firedHit),
               static_cast<unsigned long long>(rep.recEpoch),
               static_cast<unsigned long long>(rep.linesChecked),
               static_cast<unsigned long long>(rep.mismatches),
               static_cast<unsigned long long>(rep.inflightSkips),
               standby.c_str(), rep.consistent ? "" : "  ** FAIL **");
        if (!rep.consistent) {
            if (res.failures == 0) {
                // Minimization bisects serially in the parent; the
                // first failure is the lowest trial index, matching
                // the sequential sweep.
                CrashPlan minimized = minimizePlan(
                    trial_cfg, params, workload, plans[t]);
                res.failingRepro =
                    reproLine(params, workload, minimized);
                res.failingPlan = minimized;
                res.failingWorkload = workload;
                warn("crash-campaign: minimized repro: %s",
                     res.failingRepro.c_str());
            }
            ++res.failures;
        }
    }

    if (res.failures > 0 && !crash_trace.empty()) {
        CrashSimulator sim(base_cfg, params.scheme,
                           res.failingWorkload);
        sim.run(res.failingPlan);
    }
    return res;
}

} // namespace fault
} // namespace nvo
