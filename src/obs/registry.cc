#include "obs/registry.hh"

#include <fstream>
#include <ostream>

#include "common/config.hh"
#include "obs/json.hh"

namespace nvo
{
namespace obs
{

MetricRegistry &
metricRegistry()
{
    static MetricRegistry r;
    return r;
}

void
MetricRegistry::configure(const Config &cfg)
{
    // Probe before reading: an unset key must not enter the resolved
    // config dump, or every pre-metrics baseline would shift.
    bool enabled = cfg.has("metrics.enabled") &&
                   cfg.getBool("metrics.enabled", false);
    armed_ = metricCompiled && enabled;
    for (Counter &c : counters_)
        c.value = 0;
    for (HistMetric &h : hists_)
        h.hist.reset();
    gauges_.clear();
}

void
MetricRegistry::setArmed(bool on)
{
    armed_ = on && metricCompiled;
}

Counter *
MetricRegistry::addCounter(const std::string &name, MetricScope scope)
{
    auto it = counterByName_.find(name);
    if (it != counterByName_.end())
        return it->second;
    counters_.push_back(Counter{name, scope, 0});
    Counter *c = &counters_.back();
    counterByName_[name] = c;
    return c;
}

HistMetric *
MetricRegistry::addHist(const std::string &name, MetricScope scope)
{
    auto it = histByName_.find(name);
    if (it != histByName_.end())
        return it->second;
    hists_.push_back(HistMetric{name, scope, Histogram()});
    HistMetric *h = &hists_.back();
    histByName_[name] = h;
    return h;
}

void
MetricRegistry::addGauge(const std::string &name,
                         std::function<std::uint64_t()> fn,
                         MetricScope scope)
{
    gauges_[name] = Gauge{scope, std::move(fn)};
}

std::size_t
MetricRegistry::simRegistered() const
{
    std::size_t n = 0;
    for (const Counter &c : counters_)
        if (c.scope == MetricScope::Sim)
            ++n;
    for (const HistMetric &h : hists_)
        if (h.scope == MetricScope::Sim)
            ++n;
    for (const auto &kv : gauges_)
        if (kv.second.scope == MetricScope::Sim)
            ++n;
    return n;
}

namespace
{

void
writeHistSummary(JsonWriter &w, const Histogram &m, bool buckets)
{
    w.beginObject();
    w.kv("count", m.count());
    w.kv("sum", m.sum());
    w.kv("min", m.min());
    w.kv("max", m.max());
    w.kv("p50", m.percentile(50.0));
    w.kv("p90", m.percentile(90.0));
    w.kv("p99", m.percentile(99.0));
    if (buckets) {
        w.key("buckets").beginObject();
        for (unsigned i = 0; i < Histogram::numBuckets; ++i)
            if (m.bucket(i) != 0)
                w.kv(std::to_string(i), m.bucket(i));
        w.endObject();
    }
    w.endObject();
}

} // namespace

void
MetricRegistry::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.kv("enabled", armed_);
    w.kv("registered",
         static_cast<std::uint64_t>(simRegistered()));
    w.key("counters").beginObject();
    for (const auto &kv : counterByName_)
        if (kv.second->scope == MetricScope::Sim)
            w.kv(kv.first, total(kv.second));
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto &kv : gauges_)
        if (kv.second.scope == MetricScope::Sim && kv.second.fn)
            w.kv(kv.first, kv.second.fn());
    w.endObject();
    w.key("hists").beginObject();
    for (const auto &kv : histByName_) {
        if (kv.second->scope != MetricScope::Sim)
            continue;
        w.key(kv.first);
        writeHistSummary(w, merged(kv.second), true);
    }
    w.endObject();
    w.endObject();
}

namespace
{

/** Prometheus metric name: [a-zA-Z0-9_] with the nvo_ prefix. */
std::string
promName(const std::string &name)
{
    std::string out = "nvo_";
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

} // namespace

void
MetricRegistry::writePrometheus(std::ostream &os) const
{
    for (const auto &kv : counterByName_) {
        std::string n = promName(kv.first);
        os << "# TYPE " << n << "_total counter\n";
        os << n << "_total " << total(kv.second) << "\n";
    }
    for (const auto &kv : gauges_) {
        if (!kv.second.fn)
            continue;
        std::string n = promName(kv.first);
        os << "# TYPE " << n << " gauge\n";
        os << n << " " << kv.second.fn() << "\n";
    }
    for (const auto &kv : histByName_) {
        const Histogram &m = merged(kv.second);
        std::string n = promName(kv.first);
        os << "# TYPE " << n << " summary\n";
        os << n << "{quantile=\"0.5\"} " << m.percentile(50.0) << "\n";
        os << n << "{quantile=\"0.9\"} " << m.percentile(90.0) << "\n";
        os << n << "{quantile=\"0.99\"} " << m.percentile(99.0)
           << "\n";
        os << n << "_sum " << m.sum() << "\n";
        os << n << "_count " << m.count() << "\n";
        os << "# TYPE " << n << "_max gauge\n";
        os << n << "_max " << m.max() << "\n";
    }
}

void
MetricRegistry::writeJsonlLine(std::ostream &os, EpochWide epoch,
                               Cycle now) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("format", "nvo-metrics-v1");
    w.kv("epoch", epoch);
    w.kv("cycle", now);
    w.key("counters").beginObject();
    for (const auto &kv : counterByName_)
        w.kv(kv.first, total(kv.second));
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto &kv : gauges_)
        if (kv.second.fn)
            w.kv(kv.first, kv.second.fn());
    w.endObject();
    w.key("hists").beginObject();
    for (const auto &kv : histByName_) {
        w.key(kv.first);
        writeHistSummary(w, merged(kv.second), false);
    }
    w.endObject();
    w.endObject();
    os << "\n";
}

void
MetricExporter::configure(const Config &cfg)
{
    intervalEpochs_ = cfg.has("metrics.interval_epochs")
                          ? cfg.getU64("metrics.interval_epochs", 1)
                          : 1;
    if (intervalEpochs_ == 0)
        intervalEpochs_ = 1;
    promPath_ = cfg.has("metrics.prom_out")
                    ? cfg.getStr("metrics.prom_out", "")
                    : "";
    jsonlPath_ = cfg.has("metrics.jsonl_out")
                     ? cfg.getStr("metrics.jsonl_out", "")
                     : "";
    exportedOnce_ = false;
    lastEpoch_ = 0;
}

bool
MetricExporter::enabled() const
{
    return metricRegistry().armed() &&
           (!promPath_.empty() || !jsonlPath_.empty());
}

void
MetricExporter::onEpochBoundary(EpochWide epoch, Cycle now)
{
    if (!enabled())
        return;
    if (exportedOnce_ && epoch - lastEpoch_ < intervalEpochs_)
        return;
    exportNow(epoch, now);
}

void
MetricExporter::finalExport(EpochWide epoch, Cycle now)
{
    if (!enabled())
        return;
    exportNow(epoch, now);
}

void
MetricExporter::exportNow(EpochWide epoch, Cycle now)
{
    if (!promPath_.empty()) {
        std::ofstream os(promPath_, std::ios::trunc);
        if (os)
            metricRegistry().writePrometheus(os);
    }
    if (!jsonlPath_.empty()) {
        std::ofstream os(jsonlPath_, std::ios::app);
        if (os)
            metricRegistry().writeJsonlLine(os, epoch, now);
    }
    exportedOnce_ = true;
    lastEpoch_ = epoch;
}

} // namespace obs
} // namespace nvo
