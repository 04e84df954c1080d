/**
 * @file
 * Figure 14: sensitivity to epoch size on ART — normalized cycles
 * (vs the no-snapshot baseline) and NVM write bytes (vs NVOverlay)
 * for PiCL, PiCL-L2, and NVOverlay at nominal epoch sizes of 500 K,
 * 1 M, 2 M, and 4 M store uops.
 *
 * Expected shape: NVOverlay insensitive (most write backs come from
 * coherence and capacity evictions, not tag walks); PiCL's write
 * amplification drops as epochs grow (fewer walks, fewer log
 * entries).
 */

#include <array>

#include "bench_common.hh"
#include "par/procpool.hh"

using namespace nvo;

namespace
{

/** One measured cell shipped back from a forkMap worker. */
struct Cell
{
    std::uint64_t cycles = 0;
    std::uint64_t nvmWriteBytes = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("fig14_epoch_sweep",
                             bench::takeFlag(argc, argv, "--json"));
    unsigned jobs = bench::takeCount(argc, argv, "--jobs");
    Config cfg = bench::benchConfig(argc, argv);
    report.setConfig(cfg);
    const std::uint64_t sizes[] = {500'000, 1'000'000, 2'000'000,
                                   4'000'000};
    const std::array<const char *, 4> schemes = {
        "none", "nvoverlay", "picl", "picl-l2"};

    // Every (epoch size, scheme) cell is an independent simulation,
    // so the sweep fans across --jobs worker processes and merges in
    // cell order: same table and JSON rows for any job count.
    constexpr unsigned numCells = 16;
    const std::vector<Cell> cells = par::forkMapOf(
        numCells, jobs, [&](unsigned t) {
            Config wcfg = bench::forWorkload(cfg, "art");
            wcfg.set("epoch.stores_global", sizes[t / schemes.size()]);
            auto r = runExperiment(wcfg, schemes[t % schemes.size()],
                                   "art");
            return Cell{r.stats.cycles, r.stats.totalNvmWriteBytes()};
        });

    std::printf("Figure 14 — Epoch-size sensitivity (ART, "
                "ops/thread=%llu)\n",
                static_cast<unsigned long long>(
                    cfg.getU64("wl.ops", bench::defaultOps)));
    TablePrinter table({"epoch", "picl-cyc", "picl2-cyc", "nvo-cyc",
                        "picl-wr", "picl2-wr", "nvo-GB"},
                       11);
    table.printHeader();

    for (unsigned si = 0; si < 4; ++si) {
        std::uint64_t ep = sizes[si];
        const Cell &base = cells[si * 4 + 0];
        const Cell &nvo = cells[si * 4 + 1];
        const Cell &picl = cells[si * 4 + 2];
        const Cell &picl2 = cells[si * 4 + 3];
        double nb = static_cast<double>(nvo.nvmWriteBytes);
        std::string cell = std::to_string(ep / 1000) + "K";
        report.add(cell, "picl", "norm_cycles",
                   double(picl.cycles) / base.cycles);
        report.add(cell, "picl-l2", "norm_cycles",
                   double(picl2.cycles) / base.cycles);
        report.add(cell, "nvoverlay", "norm_cycles",
                   double(nvo.cycles) / base.cycles);
        report.add(cell, "picl", "norm_nvm_write_bytes",
                   picl.nvmWriteBytes / nb);
        report.add(cell, "picl-l2", "norm_nvm_write_bytes",
                   picl2.nvmWriteBytes / nb);
        report.add(cell, "nvoverlay", "nvm_write_bytes", nb);
        table.printRow(
            {std::to_string(ep / 1000) + "K",
             TablePrinter::num(double(picl.cycles) / base.cycles, 2),
             TablePrinter::num(double(picl2.cycles) / base.cycles,
                               2),
             TablePrinter::num(double(nvo.cycles) / base.cycles, 2),
             TablePrinter::num(picl.nvmWriteBytes / nb, 2),
             TablePrinter::num(picl2.nvmWriteBytes / nb, 2),
             TablePrinter::num(nb / 1e9, 3)});
    }
    report.write();
    return 0;
}
