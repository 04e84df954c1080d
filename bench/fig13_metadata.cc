/**
 * @file
 * Figure 13: persistent mapping metadata cost — the Master Mapping
 * Table size as a percentage of the write working set (the bytes it
 * maps). The radix-tree lower bound is 12.5% (one 8-byte leaf entry
 * per 64-byte line); the paper reports 12.8%-15.1% for all workloads
 * except yada (~19.7%, low inner-node occupancy).
 */

#include "bench_common.hh"
#include "harness/system.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "par/procpool.hh"
#include "workload/workload.hh"

using namespace nvo;

namespace
{

/** One measured cell shipped back from a forkMap worker. */
struct Cell
{
    std::uint64_t mappedLines = 0;
    std::uint64_t nodeBytes = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("fig13_metadata",
                             bench::takeFlag(argc, argv, "--json"));
    unsigned jobs = bench::takeCount(argc, argv, "--jobs");
    Config cfg = bench::benchConfig(argc, argv);
    // Metadata efficiency depends on page occupancy, which grows with
    // run length; give this (cheap, NVOverlay-only) figure 2x ops and
    // drop merged per-epoch tables so host memory stays flat.
    cfg.set("wl.ops", cfg.getU64("wl.ops", bench::defaultOps) * 2);
    cfg.set("mnm.drop_merged_tables", "true");
    report.setConfig(cfg);

    std::printf("Figure 13 — Mmaster size as %% of write working set "
                "(ops/thread=%llu)\n",
                static_cast<unsigned long long>(
                    cfg.getU64("wl.ops", bench::defaultOps)));
    TablePrinter table({"workload", "mapped-MB", "table-MB", "pct"},
                       12);
    table.printHeader();

    // One independent run per workload: fan across --jobs worker
    // processes and merge in workload order, so the printed table and
    // JSON rows are identical for any job count.
    const auto &wls = paperWorkloads();
    const unsigned numCells = static_cast<unsigned>(wls.size());
    const std::vector<Cell> cells = par::forkMapOf(
        numCells, jobs, [&](unsigned t) {
            Config wcfg = bench::forWorkload(cfg, wls[t]);
            System sys(wcfg, "nvoverlay", wls[t]);
            sys.run();
            auto &scheme =
                dynamic_cast<NVOverlayScheme &>(sys.scheme());
            auto &be = scheme.backend();
            return Cell{be.masterMappedLinesTotal(),
                        be.masterNodeBytesTotal()};
        });

    for (unsigned t = 0; t < numCells; ++t) {
        const std::string &wl = wls[t];
        double mapped_bytes =
            static_cast<double>(cells[t].mappedLines) * lineBytes;
        double table_bytes = static_cast<double>(cells[t].nodeBytes);
        report.add(wl, "nvoverlay", "mapped_bytes", mapped_bytes);
        report.add(wl, "nvoverlay", "master_table_bytes",
                   table_bytes);
        report.add(wl, "nvoverlay", "master_table_pct",
                   100.0 * table_bytes / mapped_bytes);
        table.printRow(
            {wl, TablePrinter::num(mapped_bytes / 1e6, 2),
             TablePrinter::num(table_bytes / 1e6, 2),
             TablePrinter::num(100.0 * table_bytes / mapped_bytes,
                               1)});
    }
    std::printf("\n(radix lower bound: 12.5%%)\n");
    report.write();
    return 0;
}
