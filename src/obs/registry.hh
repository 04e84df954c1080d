/**
 * @file
 * Unified metric registry: named counters, gauges, and histograms
 * with static registration sites.
 *
 * Components register their metrics once (typically in their
 * constructor, which runs during System::build after the registry is
 * configured) and keep the returned handle; the hot path records
 * through the NVO_METRIC macro below, which mirrors the tracer's and
 * ledger's cost model exactly: compiled out under NVO_METRIC=OFF
 * (operands type-checked, never evaluated), one load and one branch
 * when compiled in but disarmed (`metrics.enabled` unset — the
 * default), and a couple of stores when armed.
 *
 * Scope. Sim-scope metrics measure simulated behaviour and must be
 * deterministic; they are the only ones embedded in stats JSON (the
 * `metrics` section `nvo_analyze` validates). Host-scope metrics
 * measure the host process itself and legitimately vary run to run,
 * so they appear only in the Prometheus/JSONL exports.
 *
 * Registrations persist for the life of the process (handles stay
 * valid across System rebuilds); configure() zeroes every value and
 * drops gauges, whose closures capture per-build component state.
 */

#ifndef NVO_OBS_REGISTRY_HH
#define NVO_OBS_REGISTRY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>

#include "common/types.hh"
#include "obs/hist.hh"

namespace nvo
{

class Config;

namespace obs
{

class JsonWriter;

/** True when the build compiles metric hooks in. */
#ifdef NVO_METRIC_ENABLED
constexpr bool metricCompiled = true;
#else
constexpr bool metricCompiled = false;
#endif

/** What a metric measures — see the file comment. */
enum class MetricScope : unsigned char
{
    Sim,    ///< simulated behaviour; deterministic; in stats JSON
    Host,   ///< host process behaviour; exports only
};

/** A monotonically increasing count. Record through
 *  MetricRegistry::inc (via NVO_METRIC); never construct one directly
 *  outside the registry (the `metric-registry` lint rule). */
struct Counter
{
    std::string name;
    MetricScope scope = MetricScope::Sim;
    std::uint64_t value = 0;
};

/** A distribution (obs/hist.hh). */
struct HistMetric
{
    std::string name;
    MetricScope scope = MetricScope::Sim;
    Histogram hist;
};

/** A value polled at snapshot time. Re-registered every build. */
struct Gauge
{
    MetricScope scope = MetricScope::Sim;
    std::function<std::uint64_t()> fn;
};

class MetricRegistry
{
  public:
    /** Hot-path gate for NVO_METRIC. */
    bool armed() const { return armed_; }

    /**
     * (Re)configure from @p cfg: `metrics.enabled` (default off; only
     * probed when explicitly set, so untouched configs dump
     * byte-identically). Zeroes every counter and histogram and
     * drops all gauges. Runs at the top of System::build, before
     * components register.
     */
    void configure(const Config &cfg);

    /** Direct runtime control (tests, replica quiesce). */
    void setArmed(bool on);

    // --- Registration (build time; handles live forever) -----------

    /** Register (or look up) a counter. A second registration under
     *  the same name returns the existing handle. */
    Counter *addCounter(const std::string &name,
                        MetricScope scope = MetricScope::Sim);

    /** Register (or look up) a histogram. */
    HistMetric *addHist(const std::string &name,
                        MetricScope scope = MetricScope::Sim);

    /** Register a polled gauge; re-registering replaces the closure
     *  (gauges capture per-build state). */
    void addGauge(const std::string &name,
                  std::function<std::uint64_t()> fn,
                  MetricScope scope = MetricScope::Sim);

    // --- Hot path (call through NVO_METRIC) ------------------------

    void inc(Counter *c, std::uint64_t d = 1) { c->value += d; }

    void record(HistMetric *h, std::uint64_t v) { h->hist.record(v); }

    // --- Snapshots --------------------------------------------------

    /** Current total of @p c. */
    std::uint64_t total(const Counter *c) const { return c->value; }

    /** The distribution recorded into @p h. */
    const Histogram &merged(const HistMetric *h) const
    {
        return h->hist;
    }

    /** Number of Sim-scope metrics (counters + gauges + histograms)
     *  currently registered — the `registered` field nvo_analyze
     *  checks the snapshot against. */
    std::size_t simRegistered() const;

    /** Stats-JSON `metrics` section: Sim scope only. */
    void writeJson(JsonWriter &w) const;

    /** Prometheus text exposition (all scopes; histograms as
     *  summaries with p50/p90/p99 quantiles). */
    void writePrometheus(std::ostream &os) const;

    /** One `nvo-metrics-v1` JSONL snapshot line (all scopes). */
    void writeJsonlLine(std::ostream &os, EpochWide epoch,
                        Cycle now) const;

  private:
    bool armed_ = false;
    /** Deques: handle pointers must survive later registrations. */
    std::deque<Counter> counters_;
    std::deque<HistMetric> hists_;
    std::map<std::string, Counter *> counterByName_;
    std::map<std::string, HistMetric *> histByName_;
    std::map<std::string, Gauge> gauges_;
};

/** The process-wide registry. */
MetricRegistry &metricRegistry();

/**
 * Periodic exporter: rewrites a Prometheus scrape file and appends
 * JSONL snapshots every `metrics.interval_epochs` epoch boundaries.
 * Owned by the harness; a no-op unless the registry is armed and at
 * least one output path is configured.
 */
class MetricExporter
{
  public:
    /** `metrics.interval_epochs` (default 1), `metrics.prom_out`,
     *  `metrics.jsonl_out` — all probed with has() first. */
    void configure(const Config &cfg);

    bool enabled() const;

    /** Epoch-boundary hook; exports when the interval elapsed. */
    void onEpochBoundary(EpochWide epoch, Cycle now);

    /** Unconditional export after finalize (run end). */
    void finalExport(EpochWide epoch, Cycle now);

  private:
    void exportNow(EpochWide epoch, Cycle now);

    std::uint64_t intervalEpochs_ = 1;
    std::string promPath_;
    std::string jsonlPath_;
    bool exportedOnce_ = false;
    EpochWide lastEpoch_ = 0;
};

} // namespace obs
} // namespace nvo

#ifdef NVO_METRIC_ENABLED
/** Invoke a MetricRegistry method iff the registry is armed:
 *  NVO_METRIC(record(h_walk_, depth)). */
#define NVO_METRIC(call)                                               \
    do {                                                               \
        ::nvo::obs::MetricRegistry &nm_ =                              \
            ::nvo::obs::metricRegistry();                              \
        if (nm_.armed())                                               \
            nm_.call;                                                  \
    } while (0)
#else
/* Compiled out: the call stays type-checked but is never evaluated. */
#define NVO_METRIC(call)                                               \
    do {                                                               \
        if (false)                                                     \
            ::nvo::obs::metricRegistry().call;                         \
    } while (0)
#endif

#endif // NVO_OBS_REGISTRY_HH
