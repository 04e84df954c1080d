/**
 * @file
 * Figure 16: the battery-backed OMC buffer on ART with a single
 * epoch throughout execution (stress test for absorbing redundant
 * same-epoch write backs).
 *
 * Expected shape: with the buffer, NVM writes drop sharply (the
 * paper reports a 74.8% buffer hit rate and a 41% speedup in the
 * bandwidth-limited regime).
 */

#include "bench_common.hh"
#include "par/procpool.hh"

using namespace nvo;

namespace
{

/** One measured cell shipped back from a forkMap worker. */
struct Cell
{
    std::uint64_t cycles = 0;
    std::uint64_t nvmWriteOps = 0;
    std::uint64_t bufferHits = 0;
    std::uint64_t bufferMisses = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("fig16_omc_buffer",
                             bench::takeFlag(argc, argv, "--json"));
    unsigned jobs = bench::takeCount(argc, argv, "--jobs");
    Config cfg = bench::benchConfig(argc, argv);
    // Redundant same-epoch write backs accumulate with run length;
    // give this (two-run) figure 4x ops.
    cfg.set("wl.ops",
            cfg.getU64("wl.ops", bench::defaultOps) * 4);
    Config wcfg = bench::forWorkload(cfg, "art");
    // Single epoch for the whole run (the paper's setup).
    wcfg.set("epoch.stores_global", std::uint64_t(1) << 40);
    // Bandwidth-limited regime so the write savings translate into
    // cycles: single DIMM and write-dense cores.
    wcfg.set("nvm.banks", std::uint64_t(4));
    wcfg.set("wl.gap", std::uint64_t(8));
    wcfg.set("nvm.buffer_mb", std::uint64_t(4));
    report.setConfig(wcfg);

    std::printf("Figure 16 — OMC buffer (ART, one epoch, constrained "
                "NVM)\n");
    TablePrinter table({"config", "cycles", "nvm-writes-M", "hit-rate"},
                       14);
    table.printHeader();

    // Cell 0: no buffer; cell 1: LLC-sized buffer. The two runs are
    // independent, so they fan across --jobs worker processes and
    // merge in cell order (identical output for any job count).
    const std::vector<Cell> cells = par::forkMapOf(
        2, jobs, [&](unsigned t) {
            Config c = wcfg;
            if (t == 1) {
                c.set("mnm.use_buffer", "true");
                c.set("mnm.buffer_mb",
                      std::uint64_t(32));   // LLC-sized
            }
            auto r = runExperiment(c, "nvoverlay", "art");
            return Cell{r.stats.cycles, r.stats.nvmWriteOps,
                        r.stats.omcBufferHits, r.stats.omcBufferMisses};
        });
    const Cell &no_buf = cells[0];
    const Cell &buf = cells[1];

    report.add("art", "no-buffer", "cycles",
               static_cast<double>(no_buf.cycles));
    report.add("art", "no-buffer", "nvm_write_ops",
               static_cast<double>(no_buf.nvmWriteOps));
    table.printRow(
        {"no-buffer",
         TablePrinter::num(static_cast<double>(no_buf.cycles), 0),
         TablePrinter::num(no_buf.nvmWriteOps / 1e6, 2), "-"});

    double hits = static_cast<double>(buf.bufferHits);
    double total = hits + static_cast<double>(buf.bufferMisses);
    report.add("art", "with-buffer", "cycles",
               static_cast<double>(buf.cycles));
    report.add("art", "with-buffer", "nvm_write_ops",
               static_cast<double>(buf.nvmWriteOps));
    report.add("art", "with-buffer", "hit_rate_pct",
               total ? 100.0 * hits / total : 0.0);
    report.add("art", "with-buffer", "norm_cycles",
               static_cast<double>(buf.cycles) / no_buf.cycles);
    table.printRow(
        {"with-buffer",
         TablePrinter::num(static_cast<double>(buf.cycles), 0),
         TablePrinter::num(buf.nvmWriteOps / 1e6, 2),
         TablePrinter::num(total ? 100.0 * hits / total : 0.0, 1)});

    std::printf("\nnormalized cycles: %.2f   write reduction: "
                "%.1f%%\n",
                static_cast<double>(buf.cycles) / no_buf.cycles,
                100.0 * (1.0 - static_cast<double>(buf.nvmWriteOps) /
                                   no_buf.nvmWriteOps));
    report.write();
    return 0;
}
