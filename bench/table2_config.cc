/**
 * @file
 * Table II: print the resolved simulated configuration.
 */

#include <cstdio>

#include "bench_common.hh"
#include "harness/experiment.hh"

using namespace nvo;

int
main(int argc, char **argv)
{
    bench::JsonReport report("table2_config",
                             bench::takeFlag(argc, argv, "--json"));
    Config cfg = defaultConfig();
    applyOverrides(cfg);
    report.setConfig(cfg);
    std::printf("Table II — Simulated Configuration\n");
    std::printf("%-28s %s\n", "key", "value");
    for (const auto &kv : cfg.dump())
        std::printf("%-28s %s\n", kv.first.c_str(),
                    kv.second.c_str());
    report.add("config", "-", "num_keys",
               static_cast<double>(cfg.dump().size()));
    report.write();
    return 0;
}
