/**
 * @file
 * Ablation (beyond the paper): sparse sub-page storage policy. The
 * MNM stores sparse overlay pages compactly in power-of-two
 * sub-pages (Sec. V-C); this sweep compares initial sizes and growth
 * factors against "always allocate a full page", measuring pool
 * storage against the relocation write cost the compaction trades
 * for it.
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
    std::uint64_t poolBytes = 0;
    std::uint64_t relocBytes = 0;
    std::uint64_t nvmWriteBytes = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("ablation_subpage",
                             bench::takeFlag(argc, argv, "--json"));
    unsigned jobs = bench::takeCount(argc, argv, "--jobs");
    Config cfg = bench::benchConfig(argc, argv);
    report.setConfig(cfg);
    Config wcfg = bench::forWorkload(cfg, "vacation");

    struct Policy
    {
        unsigned init, growth;
        const char *label;
    };
    const std::array<Policy, 4> policies = {
        Policy{1, 2, "1/x2"}, Policy{4, 4, "4/x4"},
        Policy{16, 4, "16/x4"}, Policy{64, 4, "64(full)"}};

    // Each policy is an independent simulation, so the sweep fans
    // across --jobs worker processes and merges in cell order: same
    // table and JSON rows for any job count.
    const std::vector<Cell> cells = par::forkMapOf(
        static_cast<unsigned>(policies.size()), jobs,
        [&](unsigned t) {
            const Policy &pol = policies[t];
            Config c = wcfg;
            c.set("mnm.subpage_init_lines", std::uint64_t(pol.init));
            c.set("mnm.subpage_growth", std::uint64_t(pol.growth));
            System sys(c, "nvoverlay", "vacation");
            sys.run();
            auto &scheme =
                dynamic_cast<NVOverlayScheme &>(sys.scheme());
            std::uint64_t pool_bytes = 0;
            for (unsigned o = 0; o < scheme.backend().numOmcs(); ++o)
                pool_bytes +=
                    scheme.backend().pool(o).bytesAllocated();
            return Cell{pool_bytes,
                        sys.stats().extra["subpage_reloc_bytes"],
                        sys.stats().totalNvmWriteBytes()};
        });

    std::printf("Ablation — sparse sub-page policy (vacation)\n");
    TablePrinter table({"init/grow", "pool-MB", "reloc-MB",
                        "nvm-MB"},
                       12);
    table.printHeader();

    for (unsigned t = 0; t < policies.size(); ++t) {
        const Policy &pol = policies[t];
        const Cell &c = cells[t];
        report.add(pol.label, "nvoverlay", "pool_bytes",
                   static_cast<double>(c.poolBytes));
        report.add(pol.label, "nvoverlay", "reloc_bytes",
                   static_cast<double>(c.relocBytes));
        report.add(pol.label, "nvoverlay", "nvm_write_bytes",
                   static_cast<double>(c.nvmWriteBytes));
        table.printRow(
            {pol.label, TablePrinter::num(c.poolBytes / 1e6, 2),
             TablePrinter::num(c.relocBytes / 1e6, 2),
             TablePrinter::num(c.nvmWriteBytes / 1e6, 1)});
    }
    report.write();
    return 0;
}
