/**
 * @file
 * Figure 12: NVM write bytes (data + log + mapping metadata),
 * normalized to NVOverlay, for the schemes the paper plots
 * (HW Shadow, PiCL, PiCL-L2, NVOverlay).
 *
 * Expected shape: HW Shadow below 1.0 (each dirty line exactly once
 * per epoch; far below on L2-thrashing kmeans), PiCL ~1.4-1.9x,
 * PiCL-L2 highest (smaller on-chip version working set).
 */

#include <array>

#include "bench_common.hh"
#include "par/procpool.hh"
#include "workload/workload.hh"

using namespace nvo;

int
main(int argc, char **argv)
{
    bench::JsonReport report("fig12_writeamp",
                             bench::takeFlag(argc, argv, "--json"));
    unsigned jobs = bench::takeCount(argc, argv, "--jobs");
    Config cfg = bench::benchConfig(argc, argv);
    report.setConfig(cfg);

    // Every (workload, scheme) cell is an independent simulation:
    // fan the 12x4 grid across --jobs worker processes and merge in
    // cell order, so the table and JSON rows are byte-identical for
    // every job count.
    const std::array<const char *, 4> schemes = {
        "nvoverlay", "hwshadow", "picl", "picl-l2"};
    const auto &wls = paperWorkloads();
    const unsigned numCells =
        static_cast<unsigned>(wls.size() * schemes.size());
    const std::vector<std::uint64_t> bytes = par::forkMapOf(
        numCells, jobs, [&](unsigned t) {
            const std::string &wl = wls[t / schemes.size()];
            Config wcfg = bench::forWorkload(cfg, wl);
            auto r = runExperiment(
                wcfg, schemes[t % schemes.size()], wl);
            return r.stats.totalNvmWriteBytes();
        });

    std::printf("Figure 12 — NVM Write Bytes normalized to NVOverlay "
                "(ops/thread=%llu)\n",
                static_cast<unsigned long long>(
                    cfg.getU64("wl.ops", bench::defaultOps)));
    TablePrinter table({"workload", "hwshadow", "picl", "picl-l2",
                        "nvoverlay", "nvo-GB"},
                       11);
    table.printHeader();

    for (std::size_t wi = 0; wi < wls.size(); ++wi) {
        const std::string &wl = wls[wi];
        const std::uint64_t *cell = &bytes[wi * schemes.size()];
        double base = static_cast<double>(cell[0]);
        std::vector<std::string> row = {wl};
        for (std::size_t si = 1; si < schemes.size(); ++si) {
            double norm = cell[si] / base;
            report.add(wl, schemes[si], "norm_nvm_write_bytes", norm);
            row.push_back(TablePrinter::num(norm, 2));
        }
        report.add(wl, "nvoverlay", "norm_nvm_write_bytes", 1.0);
        report.add(wl, "nvoverlay", "nvm_write_bytes", base);
        row.push_back("1.00");
        row.push_back(TablePrinter::num(base / 1e9, 3));
        table.printRow(row);
    }
    std::printf("\n(nvo-GB: absolute NVOverlay write volume; the "
                "paper reports a 29%%-47%% reduction vs logging, "
                "i.e., PiCL columns of 1.4x-1.9x.)\n");
    report.write();
    return 0;
}
