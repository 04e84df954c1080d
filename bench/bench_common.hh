/**
 * @file
 * Shared plumbing for the figure-reproduction benches: the scaled
 * default run length, per-workload op multipliers (so heavyweight
 * kernels finish in comparable wall time), and row helpers.
 *
 * Every bench accepts NVO_OPS / NVO_EPOCH_STORES / NVO_SEED
 * environment overrides, "key=value" command-line arguments, and
 * these flags, which takeFlag() removes from argv first:
 *
 *   --json <path>  also write the results as a machine-readable file
 *                  (schema "nvo-bench-v1": bench name, resolved
 *                  config, one {workload, scheme, metric, value} row
 *                  per measured cell)
 *   --jobs <n>     sweep benches: fan cells across n worker processes
 *                  (par::forkMapOf); output is identical for every n
 *   --soak <n>, --check   fig_adaptive only (see its file comment)
 *
 * Valued flags also take the `--flag=<value>` form.
 */

#ifndef NVO_BENCH_BENCH_COMMON_HH
#define NVO_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/table_printer.hh"
#include "obs/json.hh"
#include "obs/stats_json.hh"

namespace nvo
{
namespace bench
{

/** Default measured ops per thread for figure benches (scaled-down
 *  runs; see DESIGN.md on scaling). */
constexpr std::uint64_t defaultOps = 6000;

/** Heavier kernels get fewer ops so every cell costs similar time. */
inline std::uint64_t
opsFor(const std::string &workload, std::uint64_t base)
{
    if (workload == "kmeans")
        return base / 8;
    if (workload == "labyrinth")
        return base / 4;   // very long path commits per op
    if (workload == "rbtree" || workload == "genome")
        return base / 2;
    return base;
}

/**
 * Take `--name <value>` / `--name=<value>` (or, with @p bare, the
 * switch `--name` alone) out of argv, compacting the remaining
 * arguments in place so benchConfig's key=value parser never sees
 * the flag. Returns the last occurrence's value (a switch returns its
 * own name), or "" when the flag is absent.
 */
inline std::string
takeFlag(int &argc, char **argv, const std::string &name,
         bool bare = false)
{
    std::string value;
    const std::string prefix = name + "=";
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (bare && arg == name)
            value = name;
        else if (!bare && arg == name && i + 1 < argc)
            value = argv[++i];
        else if (!bare && arg.rfind(prefix, 0) == 0)
            value = arg.substr(prefix.size());
        else
            argv[w++] = argv[i];
    }
    argc = w;
    return value;
}

/** A count flag (`--jobs`, `--soak`): 1 when absent or zero. */
inline unsigned
takeCount(int &argc, char **argv, const std::string &name)
{
    const unsigned n = static_cast<unsigned>(
        std::strtoul(takeFlag(argc, argv, name).c_str(), nullptr, 0));
    return n == 0 ? 1 : n;
}

/** A bare switch (`--check`): true when present. */
inline bool
takeSwitch(int &argc, char **argv, const std::string &name)
{
    return !takeFlag(argc, argv, name, true).empty();
}

inline Config
benchConfig(int argc, char **argv)
{
    setQuiet(true);
    Config cfg = defaultConfig();
    cfg.set("wl.ops", defaultOps);
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i)
        args.emplace_back(argv[i]);
    applyOverrides(cfg, args);
    return cfg;
}

/**
 * Machine-readable bench results. Collect one row per measured cell
 * while the tables print as usual; write() emits the file and is a
 * no-op when the run had no `--json`.
 */
class JsonReport
{
  public:
    JsonReport(std::string bench_name, std::string path)
        : name(std::move(bench_name)), path_(std::move(path))
    {
    }

    bool enabled() const { return !path_.empty(); }

    void
    setConfig(const Config &cfg)
    {
        cfg_ = cfg;
        haveCfg = true;
    }

    void
    add(const std::string &workload, const std::string &scheme,
        const std::string &metric, double value)
    {
        rows.push_back({workload, scheme, metric, value});
    }

    void
    write() const
    {
        if (path_.empty())
            return;
        std::ofstream os(path_);
        if (!os)
            fatal("cannot open --json file '%s'", path_.c_str());
        obs::JsonWriter w(os);
        w.beginObject();
        w.kv("format", "nvo-bench-v1");
        w.kv("bench", name);
        if (haveCfg) {
            w.key("config");
            obs::writeConfig(w, cfg_);
        }
        w.key("results").beginArray();
        for (const auto &r : rows) {
            w.beginObject();
            w.kv("workload", r.workload);
            w.kv("scheme", r.scheme);
            w.kv("metric", r.metric);
            w.kv("value", r.value);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
        nvo_assert(w.balanced(), "bench report left JSON unbalanced");
        std::printf("json -> %s\n", path_.c_str());
    }

  private:
    struct Row
    {
        std::string workload;
        std::string scheme;
        std::string metric;
        double value;
    };

    std::string name;
    std::string path_;
    Config cfg_;
    bool haveCfg = false;
    std::vector<Row> rows;
};

inline Config
forWorkload(Config cfg, const std::string &workload)
{
    cfg.set("wl.ops", opsFor(workload, cfg.getU64("wl.ops",
                                                  defaultOps)));
    return cfg;
}

} // namespace bench
} // namespace nvo

#endif // NVO_BENCH_BENCH_COMMON_HH
