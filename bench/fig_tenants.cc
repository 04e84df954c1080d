/**
 * @file
 * Multi-tenant scaling: the KV-service front end swept over tenant
 * count (1, 4, 16, 64) under two policy regimes — "open" (tenancy on,
 * no quotas) and "capped" (per-tenant page-pool quota plus QoS token
 * bucket). Reports cycles, snapshot data bytes, throttle stalls, and
 * quota rejections per cell.
 *
 * Expected shape: open-regime cycles and bytes are flat in tenant
 * count (ASID tagging adds no per-line cost); the capped regime
 * converts co-tenant pressure into that tenant's own stalls and
 * rejections while total data bytes stay within a few percent of the
 * open run (quota enforcement prices tenants out, it never drops
 * versions).
 */

#include <array>

#include "bench_common.hh"
#include "par/procpool.hh"

using namespace nvo;

namespace
{

struct Cell
{
    std::uint64_t cycles = 0;
    std::uint64_t dataBytes = 0;
    std::uint64_t stalls = 0;
    std::uint64_t rejections = 0;
};

std::uint64_t
extraOf(const RunStats &stats, const char *key)
{
    auto it = stats.extra.find(key);
    return it == stats.extra.end() ? 0 : it->second;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("fig_tenants",
                             bench::takeFlag(argc, argv, "--json"));
    unsigned jobs = bench::takeCount(argc, argv, "--jobs");
    Config cfg = bench::benchConfig(argc, argv);
    report.setConfig(cfg);

    const std::array<unsigned, 4> tenantCounts = {1, 4, 16, 64};
    const std::array<const char *, 2> regimes = {"open", "capped"};

    // Every (tenant count, regime) cell is an independent simulation:
    // fan across --jobs workers, merge in cell order (byte-identical
    // output for any job count).
    constexpr unsigned numCells = 8;
    const std::vector<Cell> cells = par::forkMapOf(
        numCells, jobs, [&](unsigned t) {
            const unsigned tenants = tenantCounts[t / regimes.size()];
            const bool capped = (t % regimes.size()) == 1;
            Config wcfg = bench::forWorkload(cfg, "kv_service");
            wcfg.set("tenant.enabled", std::uint64_t(1));
            wcfg.set("wl.kv.tenants", std::uint64_t(tenants));
            if (capped) {
                wcfg.set("tenant.quota_lines", std::uint64_t(600));
                wcfg.set("tenant.qos_bytes_per_kcycle", std::uint64_t(16));
                wcfg.set("tenant.qos_burst_bytes", std::uint64_t(8192));
            }
            auto r = runExperiment(wcfg, "nvoverlay", "kv_service");
            return Cell{r.stats.cycles, r.stats.nvmDataBytes(),
                        extraOf(r.stats, "tenant_throttle_stalls"),
                        extraOf(r.stats, "tenant_quota_rejections")};
        });

    std::printf("Multi-tenant KV service — tenant-count sweep "
                "(ops/thread=%llu)\n",
                static_cast<unsigned long long>(
                    cfg.getU64("wl.ops", bench::defaultOps)));
    TablePrinter table({"tenants", "regime", "cycles", "data-MB",
                        "stalls", "rejects"},
                       11);
    table.printHeader();

    for (unsigned ti = 0; ti < tenantCounts.size(); ++ti) {
        for (unsigned ri = 0; ri < regimes.size(); ++ri) {
            const Cell &c = cells[ti * regimes.size() + ri];
            const std::string row =
                "t" + std::to_string(tenantCounts[ti]);
            report.add(row, regimes[ri], "cycles",
                       static_cast<double>(c.cycles));
            report.add(row, regimes[ri], "nvm_data_bytes",
                       static_cast<double>(c.dataBytes));
            report.add(row, regimes[ri], "throttle_stalls",
                       static_cast<double>(c.stalls));
            report.add(row, regimes[ri], "quota_rejections",
                       static_cast<double>(c.rejections));
            table.printRow(
                {std::to_string(tenantCounts[ti]), regimes[ri],
                 std::to_string(c.cycles),
                 TablePrinter::num(c.dataBytes / 1e6, 2),
                 std::to_string(c.stalls),
                 std::to_string(c.rejections)});
        }
    }
    report.write();
    return 0;
}
