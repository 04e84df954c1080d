/**
 * @file
 * Figures 11 and 12 from one cell matrix: 16-thread runs of all
 * twelve workloads under the snapshotting schemes.
 *
 * Figure 11: execution cycles under the six snapshotting schemes,
 * normalized to an ideal system with no snapshotting. Expected shape
 * (paper): SW Logging slowest (per-store persist barriers), SW Shadow
 * next, HW Shadow moderately slower (synchronous mapping-table
 * updates), PiCL / PiCL-L2 / NVOverlay near 1.0 with PiCL-L2 trailing
 * on L2-thrashing workloads.
 *
 * Its trailing section reruns ART and B+Tree with Table II's literal
 * per-DIMM bank count (bandwidth-constrained regime): this is where
 * the paper's "NVM bandwidth becomes precious" effect (Sec. IX) puts
 * NVOverlay ahead of the logging schemes.
 *
 * Figure 12: NVM write bytes (data + log + mapping metadata),
 * normalized to NVOverlay, for the schemes the paper plots (HW
 * Shadow, PiCL, PiCL-L2, NVOverlay). Expected shape: HW Shadow below
 * 1.0 (each dirty line exactly once per epoch; far below on
 * L2-thrashing kmeans), PiCL ~1.4-1.9x, PiCL-L2 highest (smaller
 * on-chip version working set).
 *
 * Fig. 12's runs are a subset of Fig. 11's, so every distinct
 * (workload, scheme, config) cell runs once, fanned across --jobs
 * worker processes, and both figures read the one Cell it returns.
 * `--json` writes Fig. 11's rows and `--fig12-json` Fig. 12's; both
 * are byte-identical for every job count.
 */

#include <array>

#include "bench_common.hh"
#include "par/procpool.hh"
#include "workload/workload.hh"

using namespace nvo;

namespace
{

/** What both figures read from one run. */
struct Cell
{
    Cycle cycles;
    std::uint64_t nvmWriteBytes;
};

/** Fig. 11's schemes: each row divides by its "none" cell. */
const std::array<const char *, 7> schemes = {
    "none", "swlog", "swshadow", "hwshadow", "picl", "picl-l2",
    "nvoverlay"};
const std::array<const char *, 4> bwSchemes = {"none", "picl",
                                               "picl-l2", "nvoverlay"};
const std::array<const char *, 2> bwWorkloads = {"art", "btree"};
/** Fig. 12's columns, indices into schemes: NVOverlay is the base. */
const std::array<std::size_t, 4> fig12Schemes = {6, 3, 4, 5};

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport fig11("fig11_cycles",
                            bench::takeFlag(argc, argv, "--json"));
    bench::JsonReport fig12("fig12_writeamp",
                            bench::takeFlag(argc, argv, "--fig12-json"));
    unsigned jobs = bench::takeCount(argc, argv, "--jobs");
    Config cfg = bench::benchConfig(argc, argv);
    fig11.setConfig(cfg);
    fig12.setConfig(cfg);

    // Cells in row order: the twelve workloads x schemes, then the
    // bandwidth-constrained workloads x bwSchemes. forkMapOf merges
    // them in this order for every job count.
    const auto &wls = paperWorkloads();
    const unsigned mainCells =
        static_cast<unsigned>(wls.size() * schemes.size());
    const unsigned numCells = static_cast<unsigned>(
        mainCells + bwWorkloads.size() * bwSchemes.size());
    const std::vector<Cell> cells = par::forkMapOf(
        numCells, jobs, [&](unsigned t) {
            const bool bw = t >= mainCells;
            const unsigned u = bw ? t - mainCells : t;
            const std::string wl = bw ? bwWorkloads[u / bwSchemes.size()]
                                      : wls[u / schemes.size()];
            const char *scheme = bw ? bwSchemes[u % bwSchemes.size()]
                                    : schemes[u % schemes.size()];
            Config wcfg = bench::forWorkload(cfg, wl);
            if (bw) {
                wcfg.set("nvm.banks", std::uint64_t(16));
                wcfg.set("wl.gap", std::uint64_t(10));
            }
            auto r = runExperiment(wcfg, scheme, wl);
            return Cell{r.stats.cycles, r.stats.totalNvmWriteBytes()};
        });

    const unsigned long long ops = cfg.getU64("wl.ops", bench::defaultOps);
    std::printf("Figure 11 — Normalized Cycles (16 threads, "
                "ops/thread=%llu)\n",
                ops);
    TablePrinter table({"workload", "swlog", "swshadow", "hwshadow",
                        "picl", "picl-l2", "nvoverlay"},
                       11);
    table.printHeader();
    for (std::size_t wi = 0; wi < wls.size(); ++wi) {
        const Cell *row_cells = &cells[wi * schemes.size()];
        std::vector<std::string> row = {wls[wi]};
        for (std::size_t si = 1; si < schemes.size(); ++si) {
            double norm = static_cast<double>(row_cells[si].cycles) /
                          row_cells[0].cycles;
            fig11.add(wls[wi], schemes[si], "norm_cycles", norm);
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
    for (std::size_t wi = 0; wi < bwWorkloads.size(); ++wi) {
        const Cell *row_cells =
            &cells[mainCells + wi * bwSchemes.size()];
        std::vector<std::string> row = {bwWorkloads[wi]};
        for (std::size_t si = 1; si < bwSchemes.size(); ++si) {
            double norm = static_cast<double>(row_cells[si].cycles) /
                          row_cells[0].cycles;
            fig11.add(bwWorkloads[wi], bwSchemes[si],
                      "norm_cycles_bw_constrained", norm);
            row.push_back(TablePrinter::num(norm, 2));
        }
        t2.printRow(row);
    }

    std::printf("\nFigure 12 — NVM Write Bytes normalized to NVOverlay "
                "(ops/thread=%llu)\n",
                ops);
    TablePrinter t3({"workload", "hwshadow", "picl", "picl-l2",
                     "nvoverlay", "nvo-GB"},
                    11);
    t3.printHeader();
    for (std::size_t wi = 0; wi < wls.size(); ++wi) {
        const Cell *row_cells = &cells[wi * schemes.size()];
        const std::string &wl = wls[wi];
        double base = static_cast<double>(
            row_cells[fig12Schemes[0]].nvmWriteBytes);
        std::vector<std::string> row = {wl};
        for (std::size_t k = 1; k < fig12Schemes.size(); ++k) {
            const std::size_t si = fig12Schemes[k];
            double norm = row_cells[si].nvmWriteBytes / base;
            fig12.add(wl, schemes[si], "norm_nvm_write_bytes", norm);
            row.push_back(TablePrinter::num(norm, 2));
        }
        fig12.add(wl, "nvoverlay", "norm_nvm_write_bytes", 1.0);
        fig12.add(wl, "nvoverlay", "nvm_write_bytes", base);
        row.push_back("1.00");
        row.push_back(TablePrinter::num(base / 1e9, 3));
        t3.printRow(row);
    }
    std::printf("\n(nvo-GB: absolute NVOverlay write volume; the "
                "paper reports a 29%%-47%% reduction vs logging, "
                "i.e., PiCL columns of 1.4x-1.9x.)\n");
    fig11.write();
    fig12.write();
    return 0;
}
