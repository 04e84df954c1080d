/**
 * @file
 * Ablation (paper Sec. V-F, "Runtime DRAM Overhead"): OID tracking
 * granularity in DRAM. A 16-bit OID per 64 B line costs 3.2% of DRAM;
 * sharing one tag per super block of 4 (or 16) lines lowers it below
 * 0.8%, at the cost of conservative epoch observations — a reader of
 * any line in the block observes the block's max OID, triggering
 * extra Lamport advances.
 */

#include <array>

#include "bench_common.hh"
#include "harness/system.hh"
#include "par/procpool.hh"

using namespace nvo;

namespace
{

/** One measured cell shipped back from a forkMap worker. */
struct Cell
{
    std::uint64_t cycles = 0;
    std::uint64_t advances = 0;
    std::uint64_t lamport = 0;
    std::uint64_t nvmWriteBytes = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("ablation_oid_granularity",
                             bench::takeFlag(argc, argv, "--json"));
    unsigned jobs = bench::takeCount(argc, argv, "--jobs");
    Config cfg = bench::benchConfig(argc, argv);
    report.setConfig(cfg);
    Config wcfg = bench::forWorkload(cfg, "btree");
    const std::array<unsigned, 3> grans = {1u, 4u, 16u};

    // Each granularity is an independent simulation, so the sweep
    // fans across --jobs worker processes and merges in cell order:
    // same table and JSON rows for any job count.
    const std::vector<Cell> cells = par::forkMapOf(
        static_cast<unsigned>(grans.size()), jobs, [&](unsigned t) {
            Config c = wcfg;
            c.set("sim.oid_granularity", std::uint64_t(grans[t]));
            System sys(c, "nvoverlay", "btree");
            sys.run();
            const RunStats &st = sys.stats();
            return Cell{st.cycles, st.epochAdvances, st.lamportAdvances,
                        st.totalNvmWriteBytes()};
        });

    std::printf("Ablation — DRAM OID tracking granularity "
                "(btree)\n");
    TablePrinter table({"lines/tag", "dram-ovh%", "cycles",
                        "advances", "lamport", "nvm-MB"},
                       11);
    table.printHeader();

    for (unsigned t = 0; t < grans.size(); ++t) {
        unsigned gran = grans[t];
        const Cell &c = cells[t];
        std::string cell = std::to_string(gran) + "-lines";
        report.add(cell, "nvoverlay", "cycles",
                   static_cast<double>(c.cycles));
        report.add(cell, "nvoverlay", "epoch_advances",
                   static_cast<double>(c.advances));
        report.add(cell, "nvoverlay", "lamport_advances",
                   static_cast<double>(c.lamport));
        report.add(cell, "nvoverlay", "nvm_write_bytes",
                   static_cast<double>(c.nvmWriteBytes));
        table.printRow(
            {std::to_string(gran),
             TablePrinter::num(100.0 * 2 / (64.0 * gran), 2),
             std::to_string(c.cycles),
             std::to_string(c.advances),
             std::to_string(c.lamport),
             TablePrinter::num(c.nvmWriteBytes / 1e6, 1)});
    }
    report.write();
    return 0;
}
