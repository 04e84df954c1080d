/**
 * @file
 * Replication shipping bandwidth vs. epoch length.
 *
 * The remote-replication usage model (paper Sec. V-E) ships each
 * epoch's delta to a standby as it becomes recoverable, so the wire
 * cost tracks the *unique lines per epoch*, not the raw store
 * stream. Longer epochs absorb more overwrites into one delta (fewer
 * shipped bytes per store) but raise the lag between primary and
 * standby; this bench quantifies that trade-off: per epoch length,
 * the shipped delta bytes per epoch, the wire amplification from
 * framing + retransmits, and the shipped-bytes-per-store
 * coalescing ratio.
 */

#include "bench_common.hh"

using namespace nvo;

int
main(int argc, char **argv)
{
    bench::JsonReport report("fig_ship_bandwidth",
                             bench::takeFlag(argc, argv, "--json"));
    Config cfg = bench::benchConfig(argc, argv);
    report.setConfig(cfg);

    const std::vector<std::uint64_t> epochLens = {2000, 8000, 32000,
                                                  128000};
    const std::vector<std::string> workloads = {"btree",
                                                "hashtable"};

    std::printf("Replication shipping cost vs. epoch length "
                "(ops/thread=%llu)\n",
                static_cast<unsigned long long>(
                    cfg.getU64("wl.ops", bench::defaultOps)));
    TablePrinter table({"workload", "epoch_stores", "epochs",
                        "delta_kb/epoch", "bytes/store", "wire_amp"},
                       14);
    table.printHeader();

    for (const auto &wl : workloads) {
        for (std::uint64_t len : epochLens) {
            Config wcfg = bench::forWorkload(cfg, wl);
            wcfg.set("epoch.stores_global", len);
            wcfg.set("repl.enabled", "true");
            auto r = runExperiment(wcfg, "nvoverlay", wl);
            const auto &rs = r.stats.repl;
            double epochs =
                static_cast<double>(rs.epochsShipped
                                        ? rs.epochsShipped
                                        : 1);
            double delta_per_epoch = rs.deltaBytes / epochs;
            double bytes_per_store =
                r.stats.stores
                    ? static_cast<double>(rs.deltaBytes) /
                          r.stats.stores
                    : 0.0;
            double wire_amp =
                rs.deltaBytes
                    ? static_cast<double>(rs.wireBytes) /
                          rs.deltaBytes
                    : 0.0;
            report.add(wl, "nvoverlay-e" + std::to_string(len),
                       "delta_bytes_per_epoch", delta_per_epoch);
            report.add(wl, "nvoverlay-e" + std::to_string(len),
                       "ship_bytes_per_store", bytes_per_store);
            report.add(wl, "nvoverlay-e" + std::to_string(len),
                       "wire_amplification", wire_amp);
            table.printRow(
                {wl, std::to_string(len),
                 std::to_string(rs.epochsShipped),
                 TablePrinter::num(delta_per_epoch / 1024.0, 1),
                 TablePrinter::num(bytes_per_store, 2),
                 TablePrinter::num(wire_amp, 2)});
        }
    }
    std::printf("\nLonger epochs coalesce overwrites into one "
                "shipped version (bytes/store falls); wire "
                "amplification is framing overhead — near-constant "
                "on a clean link.\n");
    report.write();
    return 0;
}
