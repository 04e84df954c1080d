/**
 * @file
 * Figure 15: decomposition of NVM write-back triggers on ART —
 * capacity evictions, coherence/log traffic, and tag walks — for
 * PiCL, PiCL-L2, and NVOverlay, with and without the tag walker.
 *
 * Expected shape: PiCL variants lean heavily on the walker (~50% of
 * writes), NVOverlay distributes write backs over coherence and
 * capacity evictions (~90%) with the walker contributing ~10%.
 */

#include <vector>

#include "bench_common.hh"
#include "par/procpool.hh"

using namespace nvo;

namespace
{

/** Write-back counts by EvictReason: one cell's worker result. */
using Reasons = decltype(RunStats::evictReason);

void
printRow(TablePrinter &table, bench::JsonReport &report,
         const std::string &section, const std::string &label,
         const Reasons &reasons)
{
    auto reason = [&](EvictReason r) {
        return reasons[static_cast<std::size_t>(r)];
    };
    double total = 0;
    for (auto c : reasons)
        total += static_cast<double>(c);
    if (total == 0)
        total = 1;
    double capacity =
        static_cast<double>(reason(EvictReason::Capacity));
    double coh_log =
        static_cast<double>(reason(EvictReason::Coherence)) +
        static_cast<double>(reason(EvictReason::StoreEvict));
    double tag_walk =
        static_cast<double>(reason(EvictReason::TagWalk));
    double flush =
        static_cast<double>(reason(EvictReason::EpochFlush));
    report.add(section, label, "capacity_pct", 100.0 * capacity / total);
    report.add(section, label, "coh_log_pct", 100.0 * coh_log / total);
    report.add(section, label, "tag_walk_pct",
               100.0 * tag_walk / total);
    report.add(section, label, "flush_pct", 100.0 * flush / total);
    auto pct = [&](double v) {
        return TablePrinter::num(100.0 * v / total, 1);
    };
    table.printRow({label, pct(capacity), pct(coh_log), pct(tag_walk),
                    pct(flush)});
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("fig15_evict_reasons",
                             bench::takeFlag(argc, argv, "--json"));
    unsigned jobs = bench::takeCount(argc, argv, "--jobs");
    Config cfg = bench::benchConfig(argc, argv);
    report.setConfig(cfg);
    Config wcfg = bench::forWorkload(cfg, "art");

    // Cells 0..2: with walker; 3..5: walker disabled. Independent
    // runs, so the matrix fans across --jobs worker processes and
    // merges in cell order (identical output for any job count).
    const std::vector<std::string> schemes = {"picl", "picl-l2",
                                              "nvoverlay"};
    const unsigned numCells =
        static_cast<unsigned>(2 * schemes.size());
    const std::vector<Reasons> cells = par::forkMapOf(
        numCells, jobs, [&](unsigned t) {
            Config c = wcfg;
            if (t >= schemes.size()) {
                c.set("picl.walker_enabled", "false");
                c.set("nvo.walker_enabled", "false");
            }
            return runExperiment(c, schemes[t % schemes.size()], "art")
                .stats.evictReason;
        });

    std::printf("Figure 15 — Evict-reason decomposition, ART "
                "(%% of write-back triggers)\n");
    TablePrinter table({"config", "capacity", "coh/log", "tag-walk",
                        "flush"},
                       11);

    std::printf("\n(a) with tag walker\n");
    table.printHeader();
    for (unsigned i = 0; i < schemes.size(); ++i)
        printRow(table, report, "with_walker", schemes[i], cells[i]);

    std::printf("\n(b) without tag walker\n");
    table.printHeader();
    for (unsigned i = 0; i < schemes.size(); ++i)
        printRow(table, report, "no_walker", schemes[i],
                 cells[schemes.size() + i]);
    report.write();
    return 0;
}
