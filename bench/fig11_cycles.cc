/**
 * @file
 * Figure 11: normalized execution cycles for 16-thread runs of all
 * twelve workloads under the six snapshotting schemes, normalized to
 * an ideal system with no snapshotting.
 *
 * Expected shape (paper): SW Logging slowest (per-store persist
 * barriers), SW Shadow next, HW Shadow moderately slower (synchronous
 * mapping-table updates), PiCL / PiCL-L2 / NVOverlay near 1.0 with
 * PiCL-L2 trailing on L2-thrashing workloads.
 *
 * The trailing section reruns ART with Table II's literal per-DIMM
 * bank count (bandwidth-constrained regime): this is where the
 * paper's "NVM bandwidth becomes precious" effect (Sec. IX) puts
 * NVOverlay ahead of the logging schemes.
 */

#include "bench_common.hh"
#include "workload/workload.hh"

using namespace nvo;

int
main(int argc, char **argv)
{
    bench::JsonReport report("fig11_cycles",
                             bench::takeFlag(argc, argv, "--json"));
    Config cfg = bench::benchConfig(argc, argv);
    report.setConfig(cfg);

    const std::vector<std::string> schemes = {
        "swlog", "swshadow", "hwshadow", "picl", "picl-l2",
        "nvoverlay"};

    std::printf("Figure 11 — Normalized Cycles (16 threads, "
                "ops/thread=%llu)\n",
                static_cast<unsigned long long>(
                    cfg.getU64("wl.ops", bench::defaultOps)));
    TablePrinter table({"workload", "swlog", "swshadow", "hwshadow",
                        "picl", "picl-l2", "nvoverlay"},
                       11);
    table.printHeader();

    for (const auto &wl : paperWorkloads()) {
        Config wcfg = bench::forWorkload(cfg, wl);
        auto base = runExperiment(wcfg, "none", wl);
        std::vector<std::string> row = {wl};
        for (const auto &scheme : schemes) {
            auto r = runExperiment(wcfg, scheme, wl);
            double norm = static_cast<double>(r.stats.cycles) /
                          base.stats.cycles;
            report.add(wl, scheme, "norm_cycles", norm);
            row.push_back(TablePrinter::num(norm, 2));
        }
        table.printRow(row);
    }

    std::printf("\nBandwidth-constrained regime (nvm.banks=16, "
                "single DIMM, write-dense cores — Sec. IX "
                "crossover: NVOverlay's byte savings become "
                "cycles):\n");
    TablePrinter t2({"workload", "picl", "picl-l2", "nvoverlay"}, 11);
    t2.printHeader();
    for (const auto &wl : {std::string("art"), std::string("btree")}) {
        Config wcfg = bench::forWorkload(cfg, wl);
        wcfg.set("nvm.banks", std::uint64_t(16));
        wcfg.set("wl.gap", std::uint64_t(10));
        auto base = runExperiment(wcfg, "none", wl);
        std::vector<std::string> row = {wl};
        for (const char *scheme : {"picl", "picl-l2", "nvoverlay"}) {
            auto r = runExperiment(wcfg, scheme, wl);
            double norm = static_cast<double>(r.stats.cycles) /
                          base.stats.cycles;
            report.add(wl, scheme, "norm_cycles_bw_constrained",
                       norm);
            row.push_back(TablePrinter::num(norm, 2));
        }
        t2.printRow(row);
    }
    report.write();
    return 0;
}
