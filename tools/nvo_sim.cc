/**
 * @file
 * nvo_sim — command-line driver for the simulator.
 *
 * Run any scheme/workload combination with arbitrary configuration
 * overrides and get the full statistics dump, optionally with a
 * crash-recovery verification pass:
 *
 *   nvo_sim scheme=nvoverlay workload=btree wl.ops=20000
 *   nvo_sim scheme=picl workload=kmeans epoch.stores_global=500000
 *   nvo_sim scheme=nvoverlay workload=vacation crash_at=2000000 verify=1
 *   nvo_sim scheme=nvoverlay workload=btree trace_out=trace.json \
 *           stats_json=stats.json
 *   nvo_sim crash_campaign=50 campaign.workloads=btree,kmeans rng.seed=7
 *   nvo_sim workload=btree crash_point=omc.merge.version crash_hit=3
 *   nvo_sim list
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "fault/crash_sim.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "nvoverlay/recovery.hh"
#include "obs/stats_json.hh"
#include "obs/trace.hh"
#include "policy/engine.hh"
#include "workload/trace.hh"
#include "workload/workload.hh"

using namespace nvo;

namespace
{

void
usage()
{
    std::printf(
        "usage: nvo_sim [key=value ...]\n"
        "  scheme=<none|nvoverlay|swlog|swshadow|hwshadow|picl|"
        "picl-l2>\n"
        "  workload=<%s|...>\n"
        "  crash_at=<cycle>   stop without finalize at this cycle\n"
        "  crash_campaign=<n> run n seeded crash-recovery trials\n"
        "                     (campaign.workloads=a,b to sweep "
        "several\n"
        "                     workloads; rng.seed=<s> for the plan "
        "stream;\n"
        "                     exits 1 on any recovery mismatch)\n"
        "  jobs=<n>           fan campaign trials across n worker\n"
        "                     processes (plans are pre-drawn, so "
        "results\n"
        "                     are identical for any job count)\n"
        "  crash_point=<p>    single crash-recovery trial at the\n"
        "  crash_hit=<n>      n-th hit of fault point p (needs a\n"
        "                     build with NVO_FAULT=ON)\n"
        "  crash_cycle=<c>    single power-cut trial at cycle c\n"
        "  record=<path>      capture the workload's trace and exit\n"
        "  verify=1           track writes; after a crash, recover "
        "and check the image\n"
        "  trace_out=<path>   write the event trace as Chrome "
        "trace-event JSON\n"
        "                     (implies trace.enabled=1; open in "
        "chrome://tracing or Perfetto;\n"
        "                     in crash modes, flushed on the crash "
        "path — a failing\n"
        "                     campaign ships the minimized repro's "
        "trace)\n"
        "  stats_csv=<path>   write the per-epoch metric series as "
        "CSV\n"
        "  stats_json=<path>  write config + stats + per-epoch "
        "series as JSON\n"
        "  list               print workloads and exit\n"
        "  any other key=value becomes a Config override "
        "(see README)\n",
        paperWorkloads().front().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scheme = "nvoverlay";
    std::string workload = "btree";
    std::string record_path;
    std::string trace_path;
    std::string stats_csv_path;
    std::string stats_json_path;
    Cycle crash_at = 0;
    bool verify = false;
    unsigned campaign_trials = 0;
    std::string campaign_workloads;
    std::string crash_point;
    std::uint64_t crash_hit = 1;
    Cycle crash_cycle = 0;
    unsigned jobs = 1;

    Config cfg = defaultConfig();
    applyOverrides(cfg);

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "list") {
            for (const auto &w : paperWorkloads())
                std::printf("%s\n", w.c_str());
            return 0;
        }
        if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        }
        auto eq = arg.find('=');
        if (eq == std::string::npos) {
            usage();
            return 2;
        }
        std::string key = arg.substr(0, eq);
        std::string val = arg.substr(eq + 1);
        if (key == "scheme")
            scheme = val;
        else if (key == "workload")
            workload = val;
        else if (key == "crash_at")
            crash_at = std::strtoull(val.c_str(), nullptr, 0);
        else if (key == "crash_campaign")
            campaign_trials = static_cast<unsigned>(
                std::strtoull(val.c_str(), nullptr, 0));
        else if (key == "campaign.workloads")
            campaign_workloads = val;
        else if (key == "crash_point")
            crash_point = val;
        else if (key == "crash_hit")
            crash_hit = std::strtoull(val.c_str(), nullptr, 0);
        else if (key == "crash_cycle")
            crash_cycle = std::strtoull(val.c_str(), nullptr, 0);
        else if (key == "jobs")
            jobs = static_cast<unsigned>(
                std::strtoull(val.c_str(), nullptr, 0));
        else if (key == "verify")
            verify = val == "1" || val == "true";
        else if (key == "record")
            record_path = val;
        else if (key == "trace_out")
            trace_path = val;
        else if (key == "stats_csv")
            stats_csv_path = val;
        else if (key == "stats_json")
            stats_json_path = val;
        else
            cfg.set(key, val);
    }
    if (verify)
        cfg.set("sim.track_writes", "true");
    if (!trace_path.empty() && !cfg.has("trace.enabled"))
        cfg.set("trace.enabled", "true");

    if (!record_path.empty()) {
        cfg.set("wl.threads", cfg.getU64("sys.cores", 16));
        auto wl = makeWorkload(workload, cfg);
        std::uint64_t n = captureTrace(*wl, record_path);
        std::printf("recorded %llu references from %s to %s\n",
                    static_cast<unsigned long long>(n),
                    workload.c_str(), record_path.c_str());
        return 0;
    }

    // In crash modes the System lives inside CrashSimulator, so
    // trace_out becomes the crash-path flush target instead of the
    // end-of-run export below.
    if (!trace_path.empty() &&
        (campaign_trials > 0 || !crash_point.empty() ||
         crash_cycle > 0))
        cfg.set("trace.crash_out", trace_path);

    if (campaign_trials > 0) {
        fault::CampaignParams params;
        params.scheme = scheme;
        params.trials = campaign_trials;
        params.seed = cfg.getU64("rng.seed", 1);
        params.jobs = jobs;
        if (campaign_workloads.empty()) {
            params.workloads.push_back(workload);
        } else {
            std::string rest = campaign_workloads;
            while (!rest.empty()) {
                auto comma = rest.find(',');
                params.workloads.push_back(rest.substr(0, comma));
                rest = comma == std::string::npos
                           ? std::string()
                           : rest.substr(comma + 1);
            }
        }
        fault::CampaignResult res = runCrashCampaign(cfg, params);
        std::printf("crash campaign: %u trials (%u crashed), %llu "
                    "lines checked, %llu in-flight skips, %u "
                    "failures -> %s\n",
                    res.trials, res.crashes,
                    static_cast<unsigned long long>(res.linesChecked),
                    static_cast<unsigned long long>(
                        res.inflightSkips),
                    res.failures, res.passed() ? "PASS" : "FAIL");
        if (!res.passed())
            std::printf("first failing plan (minimized): %s\n",
                        res.failingRepro.c_str());
        return res.passed() ? 0 : 1;
    }

    if (!crash_point.empty() || crash_cycle > 0) {
        fault::CrashPlan plan;
        plan.point = crash_point;
        plan.hit = crash_hit;
        plan.cycle = crash_cycle;
        fault::CrashSimulator sim(cfg, scheme, workload);
        fault::CrashReport rep = sim.run(plan);
        std::printf("crash trial: %s at %s:%llu, rec-epoch=%llu, "
                    "%llu lines checked, %llu mismatches, %llu "
                    "in-flight skips%s%s -> %s\n",
                    rep.crashed ? "crashed" : "completed",
                    rep.firedPoint.empty() ? "-"
                                           : rep.firedPoint.c_str(),
                    static_cast<unsigned long long>(rep.firedHit),
                    static_cast<unsigned long long>(rep.recEpoch),
                    static_cast<unsigned long long>(rep.linesChecked),
                    static_cast<unsigned long long>(rep.mismatches),
                    static_cast<unsigned long long>(
                        rep.inflightSkips),
                    rep.error.empty() ? "" : ", recovery error: ",
                    rep.error.c_str(),
                    rep.consistent() ? "CONSISTENT" : "INCONSISTENT");
        return rep.consistent() ? 0 : 1;
    }

    auto host_t0 = std::chrono::steady_clock::now();
    System sys(cfg, scheme, workload);
    bool completed = true;
    if (crash_at > 0)
        completed = sys.runUntil(crash_at);
    else
        sys.run();
    double host_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - host_t0)
            .count();

    // Strict-config check: a key that was explicitly set but never
    // consumed by any getter is a typo or belongs to a different
    // scheme — warn, or fail under cfg.strict=1. Read the flag from
    // the System's config copy, the one that saw every access.
    bool cfg_strict = sys.config().getBool("cfg.strict", false);
    auto unread = sys.config().unreadKeys();
    if (!unread.empty()) {
        for (const auto &key : unread)
            std::fprintf(stderr,
                         "%s: config key '%s' was set but never "
                         "read\n",
                         cfg_strict ? "error" : "warning",
                         key.c_str());
        if (cfg_strict)
            return 1;
    }

    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out)
            fatal("cannot open trace_out file '%s'",
                  trace_path.c_str());
        obs::tracer().exportChrome(out);
        std::printf("trace: %llu events (%llu dropped) -> %s\n",
                    static_cast<unsigned long long>(
                        obs::tracer().size()),
                    static_cast<unsigned long long>(
                        obs::tracer().dropped()),
                    trace_path.c_str());
    }
    if (!stats_csv_path.empty()) {
        std::ofstream out(stats_csv_path);
        if (!out)
            fatal("cannot open stats_csv file '%s'",
                  stats_csv_path.c_str());
        sys.epochSeries().writeCsv(out);
    }
    if (!stats_json_path.empty()) {
        std::ofstream out(stats_json_path);
        if (!out)
            fatal("cannot open stats_json file '%s'",
                  stats_json_path.c_str());
        std::function<void(obs::JsonWriter &)> policy_section;
        if (const policy::PolicyEngine *pe = sys.policyEngine())
            policy_section = [pe](obs::JsonWriter &w) {
                pe->writeJson(w);
            };
        obs::writeStatsJson(out, scheme, workload, sys.config(),
                            sys.stats(), &sys.epochSeries(),
                            host_seconds, policy_section);
        std::printf("stats json -> %s\n", stats_json_path.c_str());
    }

    sys.stats().print(std::cout,
                      scheme + " / " + workload +
                          (completed ? "" : " (crashed)"));
    std::printf("evict-reason totals and NVM series recorded; "
                "instructions/cycle = %.3f\n",
                sys.stats().cycles
                    ? static_cast<double>(sys.stats().instructions) /
                          sys.stats().cycles
                    : 0.0);

    if (auto *nvo_scheme =
            dynamic_cast<NVOverlayScheme *>(&sys.scheme())) {
        if (crash_at > 0)
            nvo_scheme->crashFlush(sys.now());
        nvo_scheme->backend().updateStats();
        std::printf(
            "nvoverlay: rec-epoch=%llu master-lines=%llu "
            "master-bytes=%llu pool-pages=%llu\n",
            static_cast<unsigned long long>(
                nvo_scheme->backend().recEpoch()),
            static_cast<unsigned long long>(
                sys.stats().masterMappedLines),
            static_cast<unsigned long long>(
                sys.stats().masterTableBytes),
            static_cast<unsigned long long>(
                sys.stats().poolPagesInUse));

        if (verify) {
            RecoveryManager rm(nvo_scheme->backend());
            auto result = rm.recover();
            unsigned mismatches = 0, checked = 0;
            for (Addr line : sys.tracker()->trackedLines()) {
                auto expect = sys.tracker()->expectedDigest(
                    line, result.recEpoch);
                if (!expect)
                    continue;
                LineData got;
                result.image->readLine(line, got);
                ++checked;
                if (got.digest() != *expect)
                    ++mismatches;
            }
            std::printf("recovery check: %u lines, %u mismatches "
                        "-> %s\n",
                        checked, mismatches,
                        mismatches == 0 ? "CONSISTENT"
                                        : "INCONSISTENT");
            return mismatches == 0 ? 0 : 1;
        }
    }
    return 0;
}
