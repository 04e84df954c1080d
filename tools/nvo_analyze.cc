/**
 * @file
 * Offline protocol attribution analyzer.
 *
 * Consumes a `nvo-stats-v1` stats JSON (and optionally the Chrome
 * trace-event JSON from `trace_out`) and reports:
 *
 *   (a) NVM write-amplification attribution by lifecycle cause — the
 *       per-cause byte tallies the provenance ledger recorded at
 *       MnmBackend::deviceWrite, checked to sum *exactly* to the
 *       RunStats data-write total;
 *   (b) the epoch-skew histogram across VDs (Lamport sync lag),
 *       replayed from `epoch_advance` trace events;
 *   (c) mapping-table occupancy and compaction efficiency from the
 *       nvoverlay stats section and the epoch series;
 *   (d) lifecycle leak detection — a version inserted but never
 *       merged, compacted, or dropped is a protocol bug;
 *   (e) per-tenant attribution on multi-tenant runs — per-ASID byte
 *       tallies checked to sum exactly to the device data total and
 *       cross-checked against the tenant manager's own counters.
 *
 * With `--steady` it additionally asserts the run reached steady
 * state (docs/POLICY.md soak recipe): the last quarter of the epoch
 * series must agree with the quarter before it on mean mapping-pool
 * occupancy and on interval write amplification, within 20%. A soak
 * whose pool keeps growing or whose amplification keeps climbing has
 * not converged and the check exits nonzero.
 *
 * Exit status: 0 clean, 1 a lifecycle/attribution violation (leaked
 * versions, or per-cause bytes diverging from the device total) or a
 * failed --steady assertion, 2 bad usage or unreadable input. Run the
 * simulator with `ledger.enabled=1` (and a build with NVO_TRACE=ON)
 * to populate the ledger section; without it the tool reports what it
 * can and exits 0.
 *
 * Usage: nvo_analyze --stats run.json [--trace trace.json] [--steady]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json_mini.hh"

namespace
{

using jsonmini::Value;

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        std::fprintf(stderr, "nvo_analyze: cannot read '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

jsonmini::ValuePtr
parseFile(const std::string &path)
{
    try {
        return jsonmini::parse(readFile(path));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nvo_analyze: %s: %s\n", path.c_str(),
                     e.what());
        std::exit(2);
    }
}

std::string
human(double bytes)
{
    char buf[64];
    if (bytes >= 1024.0 * 1024.0)
        std::snprintf(buf, sizeof buf, "%.2f MiB",
                      bytes / (1024.0 * 1024.0));
    else if (bytes >= 1024.0)
        std::snprintf(buf, sizeof buf, "%.2f KiB", bytes / 1024.0);
    else
        std::snprintf(buf, sizeof buf, "%.0f B", bytes);
    return buf;
}

/** (a) + (d): ledger attribution and leak detection. */
int
analyzeLedger(const Value &root)
{
    const Value *stats = root.get("stats");
    const Value *ledger = root.get("ledger");
    std::string workload = root.get("workload")
                               ? root.get("workload")->asString("?")
                               : "?";
    std::string scheme =
        root.get("scheme") ? root.get("scheme")->asString("?") : "?";

    std::printf("== write-amplification attribution (%s / %s) ==\n",
                workload.c_str(), scheme.c_str());

    if (!ledger || !ledger->get("enabled") ||
        !ledger->get("enabled")->boolean) {
        std::printf("  ledger disabled for this run "
                    "(ledger.enabled=1 + NVO_TRACE build); "
                    "attribution and leak checks skipped\n");
        return 0;
    }

    std::uint64_t data_total =
        stats ? stats->get("nvm_write_bytes", "data")->asU64() : 0;
    std::uint64_t ledger_total =
        ledger->get("data_bytes_total")->asU64();
    const Value *by_cause = ledger->get("data_bytes_by_cause");

    std::uint64_t stores =
        stats && stats->get("stores") ? stats->get("stores")->asU64()
                                      : 0;
    // Write amplification as Fig. 12 frames it: NVM data bytes per
    // byte the workload logically stored (one 8 B patch per store in
    // synthetic mode is an approximation; line-granular is what the
    // device sees either way).
    double app_bytes = static_cast<double>(stores) * 8.0;

    int rc = 0;
    if (by_cause) {
        for (const auto &kv : by_cause->obj) {
            std::uint64_t b = kv.second->asU64();
            double share = data_total
                               ? 100.0 * static_cast<double>(b) /
                                     static_cast<double>(data_total)
                               : 0.0;
            std::printf("  %-16s %12llu  (%5.1f%%)\n",
                        kv.first.c_str(),
                        static_cast<unsigned long long>(b), share);
        }
    }
    std::printf("  %-16s %12llu  (%s)\n", "total",
                static_cast<unsigned long long>(ledger_total),
                human(static_cast<double>(ledger_total)).c_str());
    if (app_bytes > 0.0)
        std::printf("  amplification vs stored bytes: %.2fx\n",
                    static_cast<double>(data_total) / app_bytes);

    if (ledger_total != data_total) {
        std::printf("  ATTRIBUTION GAP: ledger accounts %llu B, "
                    "device wrote %llu B of data\n",
                    static_cast<unsigned long long>(ledger_total),
                    static_cast<unsigned long long>(data_total));
        rc = 1;
    } else {
        std::printf("  attribution exact: per-cause bytes sum to the "
                    "device data-write total\n");
    }

    std::printf("\n== lifecycle completeness ==\n");
    std::printf(
        "  sealed %llu  inserted %llu  merged %llu (late %llu)  "
        "compacted %llu  dropped %llu  overwrites %llu\n",
        static_cast<unsigned long long>(
            ledger->get("sealed")->asU64()),
        static_cast<unsigned long long>(
            ledger->get("inserted")->asU64()),
        static_cast<unsigned long long>(
            ledger->get("merged")->asU64()),
        static_cast<unsigned long long>(
            ledger->get("late_merged")->asU64()),
        static_cast<unsigned long long>(
            ledger->get("compacted")->asU64()),
        static_cast<unsigned long long>(
            ledger->get("dropped")->asU64()),
        static_cast<unsigned long long>(
            ledger->get("overwrites")->asU64()));

    std::uint64_t leaked = ledger->get("leaked")->asU64();
    if (leaked != 0) {
        std::printf("  LEAK: %llu version(s) inserted but never "
                    "merged, compacted, or dropped\n",
                    static_cast<unsigned long long>(leaked));
        const Value *samples = ledger->get("leaked_samples");
        if (samples) {
            for (const auto &s : samples->arr)
                std::printf("    addr=0x%llx epoch=%llu prov=%llu "
                            "cause=%s\n",
                            static_cast<unsigned long long>(
                                s->get("addr")->asU64()),
                            static_cast<unsigned long long>(
                                s->get("epoch")->asU64()),
                            static_cast<unsigned long long>(
                                s->get("prov")->asU64()),
                            s->get("cause")->asString("?").c_str());
        }
        rc = 1;
    } else {
        std::printf("  no leaks: every inserted version reached a "
                    "terminal state\n");
    }
    return rc;
}

/**
 * Per-tenant attribution (docs/MULTITENANCY.md): the ledger's
 * by-ASID byte tallies must sum *exactly* to the device data-write
 * total, and each tenant's ledger bytes must agree with the
 * TenantManager's independent counter — two code paths tallying the
 * same deviceWrite stream. Reports per-ASID write amplification.
 * Silently skipped (exit 0) for untenanted runs.
 */
int
analyzeTenants(const Value &root)
{
    const Value *ledger = root.get("ledger");
    const Value *by_asid =
        ledger ? ledger->get("data_bytes_by_asid") : nullptr;
    if (!by_asid)
        return 0;   // untenanted run: section absent by design

    std::printf("\n== per-tenant attribution ==\n");
    std::uint64_t total = ledger->get("data_bytes_total")->asU64();
    const Value *extra = root.get("stats", "extra");
    std::uint64_t sum = 0;
    int rc = 0;
    for (const auto &kv : by_asid->obj) {
        std::uint64_t b = kv.second->asU64();
        sum += b;
        if (kv.first == "0") {
            std::printf("  asid %4s %12llu  (untenanted)\n",
                        kv.first.c_str(),
                        static_cast<unsigned long long>(b));
            continue;
        }
        const std::string prefix = "tenant." + kv.first + ".";
        const Value *sl =
            extra ? extra->get(prefix + "store_lines") : nullptr;
        const Value *mb =
            extra ? extra->get(prefix + "data_bytes") : nullptr;
        std::uint64_t store_lines = sl ? sl->asU64() : 0;
        // Same framing as the global figure: NVM data bytes per byte
        // the tenant logically stored (8 B patch per store).
        double amp = store_lines
                         ? static_cast<double>(b) /
                               (static_cast<double>(store_lines) * 8.0)
                         : 0.0;
        std::printf("  asid %4s %12llu  (%s, amp %.2fx)\n",
                    kv.first.c_str(),
                    static_cast<unsigned long long>(b),
                    human(static_cast<double>(b)).c_str(), amp);
        if (mb && mb->asU64() != b) {
            std::printf("  TENANT LEAK: asid %s ledger says %llu B "
                        "but the tenant manager counted %llu B\n",
                        kv.first.c_str(),
                        static_cast<unsigned long long>(b),
                        static_cast<unsigned long long>(mb->asU64()));
            rc = 1;
        }
    }
    if (sum != total) {
        std::printf("  TENANT ATTRIBUTION GAP: per-ASID bytes sum to "
                    "%llu B, device wrote %llu B of data\n",
                    static_cast<unsigned long long>(sum),
                    static_cast<unsigned long long>(total));
        rc = 1;
    } else {
        std::printf("  attribution exact: per-ASID bytes sum to the "
                    "device data-write total\n");
    }
    return rc;
}

/** (b): epoch-skew histogram from epoch_advance trace events. */
void
analyzeSkew(const Value &trace)
{
    const Value *events = trace.get("traceEvents");
    if (!events || !events->isArray()) {
        std::printf("\n== epoch skew ==\n  no traceEvents in the "
                    "trace file\n");
        return;
    }
    // VD tracks live at tid 16..255; replay advances in ring order
    // and histogram max-min over the VDs seen so far.
    std::map<std::uint64_t, std::uint64_t> epochs;
    std::map<std::uint64_t, std::uint64_t> histogram;
    std::uint64_t samples = 0, peak = 0, lamport = 0;
    for (const auto &ev : events->arr) {
        const Value *name = ev->get("name");
        if (!name || name->str != "epoch_advance")
            continue;
        std::uint64_t tid = ev->get("tid")->asU64();
        if (tid < 16 || tid >= 256)
            continue;
        epochs[tid] = ev->get("args", "epoch")->asU64();
        if (ev->get("args", "lamport") &&
            ev->get("args", "lamport")->asU64() != 0)
            ++lamport;
        std::uint64_t lo = ~0ull, hi = 0;
        for (const auto &kv : epochs) {
            lo = std::min(lo, kv.second);
            hi = std::max(hi, kv.second);
        }
        std::uint64_t skew = hi - lo;
        ++histogram[skew];
        ++samples;
        peak = std::max(peak, skew);
    }
    std::printf("\n== epoch skew across VDs ==\n");
    if (samples == 0) {
        std::printf("  no epoch_advance events in the trace (ring "
                    "overwritten or Cat::Epoch filtered out)\n");
        return;
    }
    std::printf("  %llu advances observed on %zu VDs "
                "(%llu Lamport-forced), peak skew %llu\n",
                static_cast<unsigned long long>(samples),
                epochs.size(),
                static_cast<unsigned long long>(lamport),
                static_cast<unsigned long long>(peak));
    for (const auto &kv : histogram) {
        double share = 100.0 * static_cast<double>(kv.second) /
                       static_cast<double>(samples);
        int bar = static_cast<int>(share / 2.0);
        std::printf("  skew %3llu: %8llu (%5.1f%%) %.*s\n",
                    static_cast<unsigned long long>(kv.first),
                    static_cast<unsigned long long>(kv.second), share,
                    bar,
                    "##################################################");
    }
}

/** (c): mapping-table occupancy and compaction efficiency. */
void
analyzeTables(const Value &root)
{
    const Value *nv = root.get("stats", "nvoverlay");
    std::printf("\n== mapping tables and compaction ==\n");
    if (!nv) {
        std::printf("  no nvoverlay stats section (different "
                    "scheme?)\n");
        return;
    }
    std::uint64_t master_bytes =
        nv->get("master_table_bytes")->asU64();
    std::uint64_t mapped = nv->get("master_mapped_lines")->asU64();
    std::uint64_t table_bytes = nv->get("epoch_table_bytes")->asU64();
    std::uint64_t pool_pages = nv->get("pool_pages_in_use")->asU64();
    std::uint64_t compactions = nv->get("gc_compactions")->asU64();
    std::uint64_t gc_copied = nv->get("gc_bytes_copied")->asU64();

    std::printf("  master table: %s for %llu mapped lines"
                " (%.1f B/line)\n",
                human(static_cast<double>(master_bytes)).c_str(),
                static_cast<unsigned long long>(mapped),
                mapped ? static_cast<double>(master_bytes) /
                             static_cast<double>(mapped)
                       : 0.0);
    std::printf("  per-epoch tables: %s; pool pages in use: %llu\n",
                human(static_cast<double>(table_bytes)).c_str(),
                static_cast<unsigned long long>(pool_pages));

    const Value *data = root.get("stats", "nvm_write_bytes", "data");
    std::uint64_t data_bytes = data ? data->asU64() : 0;
    if (compactions == 0) {
        std::printf("  compaction never triggered\n");
    } else {
        // Efficiency = how little live data each pass had to copy
        // forward to reclaim its source epoch.
        std::printf("  compaction: %llu passes copied %s forward "
                    "(%.2f%% of data writes)\n",
                    static_cast<unsigned long long>(compactions),
                    human(static_cast<double>(gc_copied)).c_str(),
                    data_bytes ? 100.0 *
                                     static_cast<double>(gc_copied) /
                                     static_cast<double>(data_bytes)
                               : 0.0);
    }

    // Occupancy trajectory from the epoch series, when present.
    const Value *series = root.get("epoch_series");
    if (!series)
        return;
    const Value *cols = series->get("columns");
    const Value *rows = series->get("rows");
    if (!cols || !rows || rows->arr.empty())
        return;
    std::ptrdiff_t idx = -1;
    for (std::size_t i = 0; i < cols->arr.size(); ++i)
        if (cols->arr[i]->asString() == "epoch_table_bytes")
            idx = static_cast<std::ptrdiff_t>(i);
    if (idx < 0)
        return;
    std::uint64_t peak = 0;
    for (const auto &row : rows->arr) {
        if (static_cast<std::size_t>(idx) < row->arr.size())
            peak = std::max(
                peak,
                row->arr[static_cast<std::size_t>(idx)]->asU64());
    }
    std::printf("  per-epoch table occupancy peak over the run: %s "
                "(final %s)\n",
                human(static_cast<double>(peak)).c_str(),
                human(static_cast<double>(table_bytes)).c_str());
}

/**
 * --steady: convergence assertion for soak runs (docs/POLICY.md).
 *
 * Splits the epoch series into quarters by row and compares the last
 * quarter (Q4) against the one before it (Q3):
 *
 *   - mean `pool_pages_in_use` (a gauge): a structure still filling
 *     up shows Q4 well above Q3;
 *   - interval write amplification (delta data bytes per delta
 *     stored byte, cumulative columns differenced over the window):
 *     background costs still ramping (walks, compaction churn) show
 *     up here even when occupancy looks flat.
 *
 * Both must agree within 20% relative. Returns 1 on divergence.
 */
int
analyzeSteady(const Value &root)
{
    std::printf("\n== steady-state check ==\n");
    const Value *series = root.get("epoch_series");
    const Value *cols = series ? series->get("columns") : nullptr;
    const Value *rows = series ? series->get("rows") : nullptr;
    if (!cols || !rows || rows->arr.size() < 8) {
        std::printf("  NOT STEADY: epoch series absent or shorter "
                    "than 8 rows; nothing to assert on\n");
        return 1;
    }

    auto colIdx = [&](const char *name) -> std::ptrdiff_t {
        for (std::size_t i = 0; i < cols->arr.size(); ++i)
            if (cols->arr[i]->asString() == name)
                return static_cast<std::ptrdiff_t>(i);
        return -1;
    };
    std::ptrdiff_t c_pool = colIdx("pool_pages_in_use");
    std::ptrdiff_t c_data = colIdx("nvm_write_bytes_data");
    std::ptrdiff_t c_stores = colIdx("stores");
    if (c_pool < 0 || c_data < 0 || c_stores < 0) {
        std::printf("  NOT STEADY: series lacks pool/data/stores "
                    "columns\n");
        return 1;
    }
    auto cell = [&](std::size_t r, std::ptrdiff_t c) {
        return rows->arr[r]->arr[static_cast<std::size_t>(c)]->asU64();
    };

    std::size_t n = rows->arr.size();
    std::size_t q3 = n / 2, q4 = (3 * n) / 4;
    auto poolMean = [&](std::size_t lo, std::size_t hi) {
        double sum = 0.0;
        for (std::size_t r = lo; r < hi; ++r)
            sum += static_cast<double>(cell(r, c_pool));
        return sum / static_cast<double>(hi - lo);
    };
    // Interval amplification over [lo, hi): cumulative columns
    // differenced across the window, stores at 8 B each (same
    // framing as the global figure).
    auto ampOver = [&](std::size_t lo, std::size_t hi) {
        double d_data = static_cast<double>(cell(hi - 1, c_data) -
                                            cell(lo, c_data));
        double d_app = 8.0 * static_cast<double>(
                                 cell(hi - 1, c_stores) -
                                 cell(lo, c_stores));
        return d_app > 0.0 ? d_data / d_app : 0.0;
    };

    int rc = 0;
    auto judge = [&](const char *what, double prev, double last) {
        double base = std::max(prev, last);
        double rel = base > 0.0 ? (last > prev ? last - prev
                                               : prev - last) /
                                      base
                                : 0.0;
        bool ok = rel <= 0.20;
        std::printf("  %-22s Q3 %10.2f  Q4 %10.2f  drift %5.1f%% "
                    "%s\n",
                    what, prev, last, 100.0 * rel,
                    ok ? "ok" : "DIVERGING");
        if (!ok)
            rc = 1;
    };
    judge("pool pages in use", poolMean(q3, q4), poolMean(q4, n));
    judge("write amplification", ampOver(q3, q4), ampOver(q4, n));
    if (rc == 0)
        std::printf("  steady: last two quarters agree within 20%%\n");
    return rc;
}

/**
 * (e): telemetry self-consistency (docs/OBSERVABILITY.md). Two
 * invariants the registry must uphold: every histogram's per-bucket
 * occupancies sum exactly to its sample count (any drift means a
 * lost or double-counted sample), and the snapshot carries every
 * registered sim-scope metric (`registered` vs. the sections actually
 * present).
 * Silently skipped (exit 0) for runs without a metrics section.
 */
int
analyzeMetrics(const Value &root)
{
    const Value *metrics = root.get("metrics");
    if (!metrics)
        return 0;   // metrics not armed for this run

    std::printf("\n== telemetry self-consistency ==\n");
    int rc = 0;

    const Value *hists = metrics->get("hists");
    std::size_t checked = 0;
    if (hists) {
        for (const auto &kv : hists->obj) {
            const Value &h = *kv.second;
            std::uint64_t count =
                h.get("count") ? h.get("count")->asU64() : 0;
            const Value *buckets = h.get("buckets");
            std::uint64_t occ = 0;
            if (buckets)
                for (const auto &b : buckets->obj)
                    occ += b.second->asU64();
            ++checked;
            if (occ != count) {
                std::printf("  HISTOGRAM DRIFT: %s buckets hold %llu "
                            "sample(s) but count says %llu\n",
                            kv.first.c_str(),
                            static_cast<unsigned long long>(occ),
                            static_cast<unsigned long long>(count));
                rc = 1;
            }
        }
    }
    if (rc == 0)
        std::printf("  %zu histogram(s): bucket occupancies sum to "
                    "their sample counts\n",
                    checked);

    const Value *registered = metrics->get("registered");
    const Value *counters = metrics->get("counters");
    const Value *gauges = metrics->get("gauges");
    std::size_t present = (counters ? counters->obj.size() : 0) +
                          (gauges ? gauges->obj.size() : 0) +
                          (hists ? hists->obj.size() : 0);
    std::uint64_t expect = registered ? registered->asU64() : 0;
    if (!registered || expect != present) {
        std::printf("  METRIC MISSING: registry registered %llu "
                    "sim-scope metric(s) but the snapshot carries "
                    "%zu\n",
                    static_cast<unsigned long long>(expect), present);
        rc = 1;
    } else {
        std::printf("  snapshot complete: all %llu registered "
                    "metric(s) present\n",
                    static_cast<unsigned long long>(expect));
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string stats_path, trace_path;
    bool steady = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stats") == 0 && i + 1 < argc) {
            stats_path = argv[++i];
        } else if (std::strcmp(argv[i], "--trace") == 0 &&
                   i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--steady") == 0) {
            steady = true;
        } else {
            std::fprintf(stderr,
                         "usage: nvo_analyze --stats run.json "
                         "[--trace trace.json] [--steady]\n");
            return 2;
        }
    }
    if (stats_path.empty()) {
        std::fprintf(stderr,
                     "usage: nvo_analyze --stats run.json "
                     "[--trace trace.json] [--steady]\n");
        return 2;
    }

    jsonmini::ValuePtr root = parseFile(stats_path);
    const Value *fmt = root->get("format");
    if (!fmt || fmt->asString() != "nvo-stats-v1") {
        std::fprintf(stderr,
                     "nvo_analyze: '%s' is not an nvo-stats-v1 "
                     "file\n",
                     stats_path.c_str());
        return 2;
    }

    int rc = analyzeLedger(*root);
    rc |= analyzeTenants(*root);
    rc |= analyzeMetrics(*root);
    analyzeTables(*root);
    if (steady)
        rc |= analyzeSteady(*root);
    if (!trace_path.empty())
        analyzeSkew(*parseFile(trace_path));
    return rc;
}
