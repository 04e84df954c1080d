/**
 * @file
 * Adaptive-policy figure: closed-loop epoch pacing under a
 * phase-shifting workload (docs/POLICY.md).
 *
 * Runs the "phased" workload with the policy engine holding NVM
 * write bandwidth at `nvm.write_bw_budget`, segments the run at
 * phase boundaries, and reports the tail-half mean bandwidth of each
 * phase: the controller must re-converge onto the budget after every
 * demand shift. Rows are exact simulated metrics (deterministic for
 * a fixed config), so the committed baseline gates regressions in
 * the control loop itself.
 *
 * Flags (besides the usual key=value overrides and --json):
 *   --soak N   repeat the phase list N times (long-horizon run; pair
 *              with stats.series_max to bound series memory)
 *   --check    exit 1 unless every phase tail lands within 10% of
 *              the budget (the CI acceptance gate)
 */

#include <cinttypes>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "harness/system.hh"
#include "policy/engine.hh"
#include "workload/phase_shift.hh"

using namespace nvo;

namespace
{

/** One phase segment: [startCycle, endCycle) with byte watermarks
 *  sampled every driver step so the tail half can be re-derived. */
struct Segment
{
    std::string name;
    std::vector<std::uint64_t> cycles;
    std::vector<std::uint64_t> bytes;
};

/** Mean bandwidth (B/Kcycle) of the tail half of a segment. */
std::uint64_t
tailBw(const Segment &seg)
{
    if (seg.cycles.size() < 2)
        return 0;
    std::uint64_t start = seg.cycles.front();
    std::uint64_t end = seg.cycles.back();
    std::uint64_t mid = start + (end - start) / 2;
    std::size_t m = 0;
    while (m + 1 < seg.cycles.size() && seg.cycles[m] < mid)
        ++m;
    std::uint64_t dc = end - seg.cycles[m];
    return dc ? (seg.bytes.back() - seg.bytes[m]) * 1024 / dc : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("fig_adaptive",
                             bench::takeFlag(argc, argv, "--json"));
    unsigned soak = bench::takeCount(argc, argv, "--soak");
    bool check = bench::takeSwitch(argc, argv, "--check");
    Config cfg = bench::benchConfig(argc, argv);

    // The two phases offer distinct bandwidth demand (the second
    // phase shrinks the k-means footprint into cache), so the pacer
    // has to re-converge onto the same budget from both sides.
    if (!cfg.has("wl.phases")) {
        std::string spec = "kmeans:400,kmeans:4000";
        for (unsigned r = 1; r < soak; ++r)
            spec += ",kmeans:400,kmeans:4000";
        cfg.set("wl.phases", spec);
    }
    if (!cfg.has("wl.phase1.kmeans.points"))
        cfg.set("wl.phase1.kmeans.points", std::uint64_t(1) << 14);
    if (!cfg.has("epoch.stores_global"))
        cfg.set("epoch.stores_global", std::uint64_t(8000));
    if (!cfg.has("policy.enabled"))
        cfg.set("policy.enabled", std::uint64_t(1));
    if (!cfg.has("nvm.write_bw_budget"))
        cfg.set("nvm.write_bw_budget", std::uint64_t(7000));
    std::uint64_t budget = cfg.getU64("nvm.write_bw_budget", 7000);
    report.setConfig(cfg);

    System sys(cfg, "nvoverlay", "phased");
    auto *phased = dynamic_cast<PhaseShiftWorkload *>(&sys.workload());
    if (!phased)
        fatal("fig_adaptive: workload is not phased");

    // Fixed-stride driver loop: segment the run wherever the slowest
    // thread crosses a phase boundary. The stride only affects the
    // sampling grid, not the simulation itself.
    constexpr Cycle step = 100'000;
    std::vector<Segment> segs;
    segs.push_back({phased->phaseName(0), {0}, {0}});
    bool done = false;
    while (!done) {
        done = sys.runUntil(sys.now() + step);
        std::uint64_t cyc = sys.now();
        std::uint64_t bytes = sys.stats().totalNvmWriteBytes();
        std::size_t phase = phased->minPhase();
        if (!done && phase >= segs.size() &&
            phase < phased->numPhases()) {
            segs.back().cycles.push_back(cyc);
            segs.back().bytes.push_back(bytes);
            segs.push_back(
                {phased->phaseName(phase), {cyc}, {bytes}});
        } else {
            segs.back().cycles.push_back(cyc);
            segs.back().bytes.push_back(bytes);
        }
    }
    sys.run();

    std::printf("Adaptive epoch pacing — phased workload, budget "
                "%" PRIu64 " B/Kcycle\n",
                budget);
    TablePrinter table({"phase", "workload", "cycles-M", "tail-bw",
                        "err-permille"},
                       13);
    table.printHeader();
    bool within = true;
    for (std::size_t i = 0; i < segs.size(); ++i) {
        const Segment &seg = segs[i];
        std::uint64_t bw = tailBw(seg);
        std::int64_t err =
            budget ? (static_cast<std::int64_t>(bw) -
                      static_cast<std::int64_t>(budget)) *
                         1000 / static_cast<std::int64_t>(budget)
                   : 0;
        std::uint64_t abs_err =
            static_cast<std::uint64_t>(err < 0 ? -err : err);
        if (abs_err > 100)
            within = false;
        std::string cell = "phase" + std::to_string(i);
        report.add(cell, seg.name, "tail_bw_bpkc",
                   static_cast<double>(bw));
        report.add(cell, seg.name, "abs_err_permille",
                   static_cast<double>(abs_err));
        table.printRow(
            {cell, seg.name,
             TablePrinter::num(
                 (seg.cycles.back() - seg.cycles.front()) / 1e6, 2),
             std::to_string(bw),
             std::to_string(err)});
    }
    const policy::PolicyEngine *pe = sys.policyEngine();
    std::printf("policy: %" PRIu64 " evals, %" PRIu64
                " epoch actuations, final len %" PRIu64 "\n",
                pe ? pe->evals() : 0,
                pe ? pe->epochSets() : 0,
                sys.stats().extra.count("policy_epoch_len")
                    ? sys.stats().extra.at("policy_epoch_len")
                    : 0);
    report.write();
    if (check && !within) {
        std::fprintf(stderr,
                     "fig_adaptive: --check failed: a phase tail "
                     "missed the budget by more than 10%%\n");
        return 1;
    }
    return 0;
}
