/**
 * @file
 * Ablation (beyond the paper): versioned-domain width. The paper
 * fixes VDs at 2 cores + shared L2 (Sec. III-B); this sweep varies
 * cores-per-VD from 1 to 8 on a sharing-heavy workload to expose the
 * trade-off: small VDs synchronize epochs often (more Lamport
 * advances, more context dumps), large VDs make epoch advance a
 * heavier, less local event and track versions at coarser grain.
 */

#include <array>

#include "bench_common.hh"
#include "harness/system.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
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
    std::uint64_t recEpoch = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("ablation_vd_size",
                             bench::takeFlag(argc, argv, "--json"));
    unsigned jobs = bench::takeCount(argc, argv, "--jobs");
    Config cfg = bench::benchConfig(argc, argv);
    report.setConfig(cfg);
    Config wcfg = bench::forWorkload(cfg, "vacation");
    const std::array<unsigned, 4> widths = {1u, 2u, 4u, 8u};

    // Each VD width is an independent simulation, so the sweep fans
    // across --jobs worker processes and merges in cell order: same
    // table and JSON rows for any job count.
    const std::vector<Cell> cells = par::forkMapOf(
        static_cast<unsigned>(widths.size()), jobs, [&](unsigned t) {
            Config c = wcfg;
            c.set("sys.cores_per_vd", std::uint64_t(widths[t]));
            System sys(c, "nvoverlay", "vacation");
            sys.run();
            auto &scheme =
                dynamic_cast<NVOverlayScheme &>(sys.scheme());
            const RunStats &st = sys.stats();
            return Cell{st.cycles, st.epochAdvances, st.lamportAdvances,
                        st.totalNvmWriteBytes(),
                        scheme.backend().recEpoch()};
        });

    std::printf("Ablation — cores per versioned domain (vacation)\n");
    TablePrinter table({"cores/VD", "cycles", "advances", "lamport",
                        "nvm-MB", "rec-epoch"},
                       11);
    table.printHeader();

    for (unsigned t = 0; t < widths.size(); ++t) {
        const Cell &c = cells[t];
        std::string cell = std::to_string(widths[t]) + "-cores";
        report.add(cell, "nvoverlay", "cycles",
                   static_cast<double>(c.cycles));
        report.add(cell, "nvoverlay", "epoch_advances",
                   static_cast<double>(c.advances));
        report.add(cell, "nvoverlay", "lamport_advances",
                   static_cast<double>(c.lamport));
        report.add(cell, "nvoverlay", "nvm_write_bytes",
                   static_cast<double>(c.nvmWriteBytes));
        report.add(cell, "nvoverlay", "rec_epoch",
                   static_cast<double>(c.recEpoch));
        table.printRow(
            {std::to_string(widths[t]), std::to_string(c.cycles),
             std::to_string(c.advances), std::to_string(c.lamport),
             TablePrinter::num(c.nvmWriteBytes / 1e6, 1),
             std::to_string(c.recEpoch)});
    }
    report.write();
    return 0;
}
