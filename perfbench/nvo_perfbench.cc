/**
 * @file
 * Host-performance benchmark program for the NVOverlay simulator.
 *
 * Runs one named workload through the public API and measures it from
 * outside the program: the run loop is driven in per-quantum slices of
 * System::runUntil (System::run() then performs the finalize), and the
 * recovery and time-travel paths are timed as direct calls. With
 * --trace 1 a separate traced run additionally wraps the workload
 * generator (a forwarding WorkloadBase handed to the injected-workload
 * System constructor) and the CST/MNM interface (a forwarding
 * VersionCtrl installed with Hierarchy::setVersionCtrl), splitting the
 * slice time into generator, VersionCtrl and residual (cores + caches)
 * time, and writes its spans to a JSONL file.
 *
 * Every run is also checked: all repetitions must produce the same
 * simulated statistics, recovery must validate, and an untimed pass
 * with the write tracker on checks the recovery theorem (clean
 * workloads) or the crash simulator's consistency verdict at the same
 * power-cut cycle (crash workload).
 *
 * Usage:
 *   nvo_perfbench --workload <name> --seed <n> --seconds <s>
 *                 --trace <0|1> [--spans <path>]
 *   nvo_perfbench --selftest
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. Exit status is 0 only when
 * every check passed.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "fault/crash_sim.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "mem/write_tracker.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "nvoverlay/recovery.hh"
#include "nvoverlay/snapshot_reader.hh"
#include "obs/json.hh"
#include "obs/stats_json.hh"
#include "workload/workload.hh"

namespace nvo
{
namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

using Keys = std::vector<std::pair<std::string, std::string>>;

struct Spec
{
    std::string name;
    std::string workload;
    /** Overrides on top of defaultConfig() (Table II). */
    Keys keys;
    /** Extra overrides for the selftest's small size. */
    Keys smallKeys;
    /** Nominal power-cut cycle; 0 = run to a clean finalize. */
    Cycle crashCycle = 0;
    Cycle smallCrashCycle = 0;
};

/** (line, epoch) pairs read through the SnapshotReader per run. */
constexpr unsigned travelSamples = 4096;

const std::vector<Spec> &
specs()
{
    static const std::vector<Spec> all = {
        {"kmeans_paper",
         "kmeans",
         {{"epoch.stores_global", "1048576"}},
         {{"wl.ops", "256"}, {"epoch.stores_global", "65536"}},
         0,
         0},
        {"hashtable_hifreq",
         "hashtable",
         {{"wl.ops", "1000"}, {"nvo.stores_per_epoch_vd", "8"}},
         {{"wl.ops", "150"}, {"wl.hashtable.prefill", "4096"}},
         0,
         0},
        {"btree_crash",
         "btree",
         {{"persist.armed", "1"}, {"wl.ops", "8192"}},
         {{"wl.ops", "300"},
          {"wl.btree.prefill", "4096"},
          {"epoch.stores_global", "65536"}},
         8000000,
         500000},
    };
    return all;
}

const Spec *
findSpec(const std::string &name)
{
    for (const auto &s : specs())
        if (s.name == name)
            return &s;
    return nullptr;
}

Config
specConfig(const Spec &spec, std::uint64_t seed, bool small)
{
    Config cfg = defaultConfig();
    for (const auto &kv : spec.keys)
        cfg.set(kv.first, kv.second);
    if (small)
        for (const auto &kv : spec.smallKeys)
            cfg.set(kv.first, kv.second);
    cfg.set("rng.seed", seed);
    return cfg;
}

/**
 * Power-cut cycle for @p seed: the nominal cycle plus a seeded jitter
 * of up to 2 %, so each seed cuts at its own (but fixed) point.
 */
Cycle
crashCycleFor(const Spec &spec, std::uint64_t seed, bool small)
{
    Cycle base = small ? spec.smallCrashCycle : spec.crashCycle;
    if (base == 0)
        return 0;
    Rng rng(seed ^ 0xc7a5b0f1ull);
    return base + rng.below(base / 50 + 1);
}

// ---------------------------------------------------------------------
// Outside timers
// ---------------------------------------------------------------------

/** Calls and host time of the wrapped layers within one phase. */
struct LayerTimes
{
    std::uint64_t genCalls = 0, genNs = 0, genRefs = 0;
    std::uint64_t acceptCalls = 0, acceptNs = 0;
    std::uint64_t observeCalls = 0, observeNs = 0;
    std::uint64_t vdEpochCalls = 0;

    std::uint64_t vctrlNs() const { return acceptNs + observeNs; }
};

/** Where the wrappers currently book their time. */
struct Probe
{
    LayerTimes slice;   ///< inside runUntil slices
    LayerTimes other;   ///< set-up, finalize and everything else
    LayerTimes *bucket = &other;
};

/**
 * Forwarding generator: times each genOp of the real workload. Valid
 * for generators that do not read their own op counters (the wrapper
 * keeps those); the identity check proves it per workload.
 */
class TimedWorkload : public WorkloadBase
{
  public:
    TimedWorkload(std::unique_ptr<WorkloadBase> inner, Probe &probe)
        : WorkloadBase(inner->params()), inner_(std::move(inner)),
          probe_(probe)
    {
    }

    const char *name() const override { return inner_->name(); }
    bool independentGen() const override
    {
        return inner_->independentGen();
    }

    void
    genOp(unsigned thread, std::vector<MemRef> &out) override
    {
        std::size_t before = out.size();
        auto t0 = Clock::now();
        inner_->genOp(thread, out);
        auto t1 = Clock::now();
        LayerTimes &b = *probe_.bucket;
        ++b.genCalls;
        b.genNs += nsBetween(t0, t1);
        b.genRefs += out.size() - before;
    }

  private:
    std::unique_ptr<WorkloadBase> inner_;
    Probe &probe_;
};

/** Forwarding VersionCtrl: times the CST->MNM calls, counts vdEpoch. */
class TimedVersionCtrl : public VersionCtrl
{
  public:
    explicit TimedVersionCtrl(Probe &probe) : probe_(probe) {}

    void bind(VersionCtrl &inner) { inner_ = &inner; }

    EpochWide
    vdEpoch(unsigned vd) const override
    {
        ++probe_.bucket->vdEpochCalls;
        return inner_->vdEpoch(vd);
    }

    Cycle
    observeRemoteVersion(unsigned vd, EpochWide rv, Cycle now) override
    {
        auto t0 = Clock::now();
        Cycle c = inner_->observeRemoteVersion(vd, rv, now);
        auto t1 = Clock::now();
        LayerTimes &b = *probe_.bucket;
        ++b.observeCalls;
        b.observeNs += nsBetween(t0, t1);
        return c;
    }

    Cycle
    acceptVersion(unsigned vd, Addr line_addr, EpochWide oid, SeqNo seq,
                  const LineData &content, EvictReason why,
                  Cycle now) override
    {
        auto t0 = Clock::now();
        Cycle c = inner_->acceptVersion(vd, line_addr, oid, seq, content,
                                        why, now);
        auto t1 = Clock::now();
        LayerTimes &b = *probe_.bucket;
        ++b.acceptCalls;
        b.acceptNs += nsBetween(t0, t1);
        return c;
    }

  private:
    Probe &probe_;
    VersionCtrl *inner_ = nullptr;
};

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span
{
    std::uint64_t id;
    std::uint64_t parent;   ///< 0 = root
    std::string name;
    std::uint64_t startNs;
    std::uint64_t endNs;
    /** Aggregated child-layer counters (slices only). */
    std::vector<std::pair<std::string, std::uint64_t>> attrs;
};

/** In-memory span log of one run, written out at the end. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled)
        : enabled_(enabled), origin_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    std::uint64_t
    add(std::uint64_t parent, std::string name, Clock::time_point a,
        Clock::time_point b,
        std::vector<std::pair<std::string, std::uint64_t>> attrs = {})
    {
        if (!enabled_)
            return 0;
        std::uint64_t id = spans_.size() + 1;
        spans_.push_back({id, parent, std::move(name),
                          nsBetween(origin_, a), nsBetween(origin_, b),
                          std::move(attrs)});
        return id;
    }

    /** Reserve an id for a span whose end is not known yet. */
    std::uint64_t
    open(std::uint64_t parent, std::string name, Clock::time_point a)
    {
        return add(parent, std::move(name), a, a);
    }

    void
    close(std::uint64_t id, Clock::time_point b)
    {
        if (enabled_ && id != 0)
            spans_[id - 1].endNs = nsBetween(origin_, b);
    }

    bool
    write(const std::string &path, const std::string &run_id) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        for (const auto &s : spans_) {
            os << "{\"run\":\"" << run_id << "\",\"id\":" << s.id
               << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
               << "\",\"start_ns\":" << s.startNs
               << ",\"end_ns\":" << s.endNs;
            for (const auto &kv : s.attrs)
                os << ",\"" << kv.first << "\":" << kv.second;
            os << "}\n";
        }
        return static_cast<bool>(os);
    }

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------

enum class Mode
{
    Plain,    ///< System::run() / runUntil(crash) in one call
    Sliced,   ///< per-quantum slices, no wrappers
    Traced,   ///< slices + generator wrapper + VersionCtrl proxy
};

const char *
modeName(Mode m)
{
    switch (m) {
    case Mode::Plain:
        return "plain";
    case Mode::Sliced:
        return "sliced";
    case Mode::Traced:
        return "traced";
    }
    return "?";
}

struct Fingerprint
{
    /** RunStats as JSON plus RunStats::print (host keys masked). */
    std::string stats;
    /** The whole stats-JSON report (config, stats, ledger, series). */
    std::string report;
};

/** Host-dependent RunStats keys; everything else is simulated. */
RunStats
maskHost(const RunStats &stats)
{
    RunStats s = stats;
    s.extra.erase("host_run_us");
    s.extra.erase("host_finalize_us");
    return s;
}

Fingerprint
fingerprint(System &sys, const std::string &workload)
{
    RunStats masked = maskHost(sys.stats());
    Fingerprint fp;
    std::ostringstream st;
    {
        obs::JsonWriter w(st);
        obs::writeRunStats(w, masked);
    }
    masked.print(st, "run");
    fp.stats = st.str();
    std::ostringstream rep;
    obs::writeStatsJson(rep, "nvoverlay", workload, sys.config(), masked,
                        &sys.epochSeries());
    fp.report = rep.str();
    return fp;
}

struct Rep
{
    Mode mode = Mode::Plain;
    std::uint64_t setupNs = 0;
    std::uint64_t sliceNs = 0;      ///< run loop (all slices)
    std::uint64_t finalizeNs = 0;   ///< System::run() after the slices
    std::uint64_t slices = 0;
    /** Host ns and simulated refs of each slice, in run order. */
    std::vector<std::uint64_t> sliceNsList, sliceRefs;
    std::vector<std::uint64_t> boundarySliceNs, plainSliceNs;
    std::uint64_t refs = 0, stores = 0, epochs = 0;
    std::uint64_t updateStatsNs = 0, crashResetNs = 0;
    std::uint64_t recoverNs = 0, validateNs = 0;
    std::uint64_t linesRestored = 0;
    EpochWide recEpoch = 0;
    std::vector<std::uint64_t> readNs;
    std::uint64_t reads = 0, readsFound = 0;
    Fingerprint fp;
    RunStats stats;
    LayerTimes sliceLayers, otherLayers;
    /** Per-slice residual time never went negative and no generator
     *  call happened outside a slice. */
    bool closureOk = true;
    std::string error;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentile(std::vector<std::uint64_t> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t idx = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
    return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

/**
 * recover() is called at least this often per repetition, and again
 * until recoverBudgetNs have been spent (capped at recoverMaxCalls);
 * the median call is reported.
 */
constexpr unsigned recoverMinCalls = 5;
constexpr unsigned recoverMaxCalls = 25;
constexpr std::uint64_t recoverBudgetNs = 50'000'000;

Rep
runRep(const Spec &spec, const Config &cfg, Cycle crash,
       std::uint64_t seed, Mode mode, SpanLog &spans,
       std::uint64_t parent)
{
    Rep rep;
    rep.mode = mode;
    Probe probe;
    TimedVersionCtrl proxy(probe);
    const bool traced = mode == Mode::Traced;

    // --- set-up: workload build (incl. prefill) + system assembly.
    auto t_setup = Clock::now();
    std::unique_ptr<System> sys;
    if (traced) {
        // Same resolved config the named constructor would build.
        Config wcfg = cfg;
        wcfg.set("wl.threads", wcfg.getU64("sys.cores", 16));
        auto wl = std::make_unique<TimedWorkload>(
            makeWorkload(spec.workload, wcfg), probe);
        sys = std::make_unique<System>(wcfg, "nvoverlay", std::move(wl));
    } else {
        sys = std::make_unique<System>(cfg, "nvoverlay", spec.workload);
    }
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys->scheme());
    if (traced) {
        proxy.bind(scheme);
        sys->hierarchy().setVersionCtrl(&proxy);
    }
    auto t_built = Clock::now();
    rep.setupNs = nsBetween(t_setup, t_built);
    spans.add(parent, "harness.setup", t_setup, t_built);

    // --- run loop.
    std::vector<std::uint64_t> &slice_ns = rep.sliceNsList;
    std::vector<std::uint64_t> &slice_refs = rep.sliceRefs;
    if (mode == Mode::Plain) {
        auto a = Clock::now();
        if (crash)
            sys->runUntil(crash);
        else
            sys->run();
        auto b = Clock::now();
        rep.sliceNs = nsBetween(a, b);
        spans.add(parent, "harness.run", a, b);
    } else {
        const Cycle quantum = sys->config().getU64("sys.quantum", 2000);
        std::uint64_t prev_refs = 0, prev_epochs = 0;
        probe.bucket = &probe.slice;
        while (!sys->done() && (crash == 0 || sys->now() < crash)) {
            LayerTimes before = probe.slice;
            auto a = Clock::now();
            sys->runUntil(sys->now() + quantum);
            auto b = Clock::now();
            std::uint64_t ns = nsBetween(a, b);
            std::uint64_t refs = sys->stats().refs;
            std::uint64_t epochs = scheme.epochsCompleted();
            slice_ns.push_back(ns);
            slice_refs.push_back(refs - prev_refs);
            (epochs != prev_epochs ? rep.boundarySliceNs
                                   : rep.plainSliceNs)
                .push_back(ns);
            rep.sliceNs += ns;
            if (traced) {
                const LayerTimes &now = probe.slice;
                std::uint64_t gen = now.genNs - before.genNs;
                std::uint64_t vctrl = now.vctrlNs() - before.vctrlNs();
                if (gen + vctrl > ns)
                    rep.closureOk = false;
                if (spans.enabled())
                    spans.add(
                        parent, "harness.slice", a, b,
                        {{"refs", refs - prev_refs},
                         {"epoch_boundary", epochs != prev_epochs},
                         {"workload.gen_ns", gen},
                         {"workload.gen_calls",
                          now.genCalls - before.genCalls},
                         {"nvoverlay.vctrl_ns", vctrl},
                         {"nvoverlay.accept_calls",
                          now.acceptCalls - before.acceptCalls}});
            }
            prev_refs = refs;
            prev_epochs = epochs;
        }
        probe.bucket = &probe.other;
        if (crash == 0) {
            auto a = Clock::now();
            sys->run();   // loop is already done: finalize only
            auto b = Clock::now();
            rep.finalizeNs = nsBetween(a, b);
            spans.add(parent, "harness.finalize", a, b);
        }
    }
    rep.slices = slice_ns.size();
    rep.refs = sys->stats().refs;
    rep.stores = sys->stats().stores;
    rep.epochs = scheme.epochsCompleted();
    if (rep.refs == 0 || rep.epochs == 0)
        rep.error = "run simulated no references or completed no epoch";

    // --- MNM aggregates: one explicit call, scales with history.
    {
        auto a = Clock::now();
        scheme.updateStats();
        auto b = Clock::now();
        rep.updateStatsNs = nsBetween(a, b);
        spans.add(parent, "mnm.update_stats", a, b);
    }
    rep.fp = fingerprint(*sys, spec.workload);
    rep.stats = sys->stats();

    // --- recovery.
    MnmBackend &backend = scheme.backend();
    if (crash) {
        auto a = Clock::now();
        backend.crashReset();
        auto b = Clock::now();
        rep.crashResetNs = nsBetween(a, b);
        spans.add(parent, "recovery.crash_reset", a, b);
    }
    RecoveryManager rm(backend);
    RecoveryManager::Result result;
    std::vector<double> recover_ns;
    std::uint64_t recover_total = 0;
    for (unsigned i = 0;
         i < recoverMinCalls ||
         (recover_total < recoverBudgetNs && i < recoverMaxCalls);
         ++i) {
        auto a = Clock::now();
        auto r = rm.recover();
        auto b = Clock::now();
        recover_ns.push_back(static_cast<double>(nsBetween(a, b)));
        recover_total += nsBetween(a, b);
        spans.add(parent, "recovery.recover", a, b);
        if (i == 0) {
            result = std::move(r);
        } else if (r.recEpoch != result.recEpoch ||
                   r.linesRestored != result.linesRestored) {
            rep.error = "repeated recover() disagreed";
        }
    }
    rep.recoverNs = static_cast<std::uint64_t>(median(recover_ns));
    rep.recEpoch = result.recEpoch;
    rep.linesRestored = result.linesRestored;
    {
        auto a = Clock::now();
        std::string err = RecoveryManager::validate(result, backend);
        auto b = Clock::now();
        rep.validateNs = nsBetween(a, b);
        spans.add(parent, "recovery.validate", a, b);
        if (!err.empty())
            rep.error = "validate: " + err;
    }
    if (rep.recEpoch == 0 || rep.linesRestored == 0)
        rep.error = "nothing recoverable (rec-epoch 0)";

    // --- time travel over a seeded sample of (line, epoch) pairs.
    std::vector<Addr> lines;
    backend.forEachMasterEntry(
        [&](Addr a, const MasterTable::Entry &) { lines.push_back(a); });
    std::sort(lines.begin(), lines.end());
    if (!lines.empty() && rep.recEpoch > 0) {
        SnapshotReader reader(backend);
        Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x71e7);
        rep.readNs.reserve(travelSamples);
        auto ta = Clock::now();
        for (unsigned i = 0; i < travelSamples; ++i) {
            Addr line = lines[rng.below(lines.size())];
            EpochWide e = rng.range(1, rep.recEpoch);
            auto a = Clock::now();
            auto v = reader.readLine(line, e);
            auto b = Clock::now();
            rep.readNs.push_back(nsBetween(a, b));
            ++rep.reads;
            if (v) {
                ++rep.readsFound;
                if (v->epoch > e)
                    rep.error = "time-travel read returned a newer epoch";
            }
            if (i % 64 == 0) {
                // At the rec-epoch the snapshot and the recovered image
                // must agree.
                auto s = reader.readLine(line, rep.recEpoch);
                LineData img;
                result.image->readLine(line, img);
                if (!s || s->data.digest() != img.digest())
                    rep.error = "snapshot at rec-epoch != recovered image";
            }
        }
        spans.add(parent, "snapshot.reads", ta, Clock::now(),
                  {{"reads", rep.reads}});
    }
    rep.sliceLayers = probe.slice;
    rep.otherLayers = probe.other;
    if (traced && probe.other.genCalls != 0)
        rep.closureOk = false;   // generator ran outside the run loop
    sys.reset();   // before the proxy goes out of scope
    return rep;
}

// ---------------------------------------------------------------------
// Correctness pass (untimed, write tracker on)
// ---------------------------------------------------------------------

struct Verdict
{
    std::string error;   ///< empty = passed
    std::uint64_t linesChecked = 0;
    std::uint64_t inflightSkips = 0;
    std::uint64_t travelChecked = 0;
};

Verdict
verifyClean(const Spec &spec, const Config &base, std::uint64_t seed,
            const Rep &timed)
{
    Verdict v;
    Config cfg = base;
    cfg.set("sim.track_writes", "true");
    System sys(cfg, "nvoverlay", spec.workload);
    sys.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    scheme.updateStats();
    if (fingerprint(sys, spec.workload).stats != timed.fp.stats) {
        v.error = "tracked run's statistics differ from the timed run";
        return v;
    }
    WriteTracker *tracker = sys.tracker();
    if (!tracker->epochsMonotonic())
        v.error = "tracked per-line epochs went backwards";

    RecoveryManager rm(scheme.backend());
    auto result = rm.recover();
    std::string err = RecoveryManager::validate(result, scheme.backend());
    if (!err.empty())
        v.error = "validate: " + err;
    if (result.recEpoch != timed.recEpoch ||
        result.linesRestored != timed.linesRestored)
        v.error = "tracked recovery differs from the timed run";

    // Recovery theorem: every line equals its last committed store
    // with epoch <= rec-epoch.
    std::vector<Addr> lines = tracker->trackedLines();
    std::sort(lines.begin(), lines.end());
    std::uint64_t mismatches = 0;
    for (Addr line : lines) {
        auto expect = tracker->expectedDigest(line, result.recEpoch);
        if (!expect)
            continue;
        ++v.linesChecked;
        LineData got;
        result.image->readLine(line, got);
        if (got.digest() != *expect)
            ++mismatches;
    }
    if (mismatches)
        v.error = std::to_string(mismatches) +
                  " lines break the recovery theorem";
    if (v.linesChecked == 0)
        v.error = "recovery theorem checked no line";

    // Time travel: seeded historical reads match the tracker.
    SnapshotReader reader(scheme.backend());
    Rng rng(seed ^ 0x7a11e5ull);
    std::uint64_t travel_bad = 0;
    for (unsigned i = 0; i < travelSamples && !lines.empty(); ++i) {
        Addr line = lines[rng.below(lines.size())];
        EpochWide e = rng.range(1, std::max<EpochWide>(1, result.recEpoch));
        auto expect = tracker->expectedDigest(line, e);
        auto got = reader.readLine(line, e);
        ++v.travelChecked;
        if (expect ? (!got || got->data.digest() != *expect) : !!got)
            ++travel_bad;
    }
    if (travel_bad)
        v.error = std::to_string(travel_bad) +
                  " time-travel reads disagree with the write tracker";
    return v;
}

Verdict
verifyCrash(const Spec &spec, const Config &cfg, Cycle crash,
            const Rep &timed)
{
    Verdict v;
    fault::CrashSimulator sim(cfg, "nvoverlay", spec.workload);
    fault::CrashPlan plan;
    plan.cycle = crash;
    fault::CrashReport report = sim.run(plan);
    v.linesChecked = report.linesChecked;
    v.inflightSkips = report.inflightSkips;
    if (!report.crashed)
        v.error = "the planned power cut did not fire";
    else if (!report.consistent())
        v.error = "crash simulator: " + std::to_string(report.mismatches) +
                  " mismatches " + report.error;
    else if (report.linesChecked == 0)
        v.error = "crash simulator checked no line";
    else if (report.recEpoch != timed.recEpoch ||
             report.linesRestored != timed.linesRestored)
        v.error = "crash simulator recovered a different image (rec " +
                  std::to_string(report.recEpoch) + " vs " +
                  std::to_string(timed.recEpoch) + ")";
    return v;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
formatNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const auto &m : metrics)
        std::printf("  %-36s %16s %s\n", m.name.c_str(),
                    formatNumber(m.value).c_str(), m.unit.c_str());
    std::printf("  %-36s %16llu runs\n", "verify_failures",
                static_cast<unsigned long long>(failed));
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " +
               formatNumber(metrics[i].value) + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB -> MiB
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

template <typename F>
double
medianOf(const std::vector<Rep> &reps, F f)
{
    std::vector<double> v;
    for (const auto &r : reps)
        v.push_back(f(r));
    return median(v);
}

/** Host ns per simulated ref in the last quarter of the slices over
 *  the first quarter. */
double
hostGrowth(const std::vector<std::uint64_t> &ns,
           const std::vector<std::uint64_t> &refs)
{
    std::size_t q = ns.size() / 4;
    std::uint64_t ns_first = 0, refs_first = 0, ns_last = 0, refs_last = 0;
    for (std::size_t i = 0; i < q; ++i) {
        ns_first += ns[i];
        refs_first += refs[i];
        ns_last += ns[ns.size() - 1 - i];
        refs_last += refs[ns.size() - 1 - i];
    }
    if (refs_first == 0 || refs_last == 0 || ns_first == 0)
        return 0;
    return (static_cast<double>(ns_last) / refs_last) /
           (static_cast<double>(ns_first) / refs_first);
}

/**
 * The fastest time of each slice over all repetitions. Every
 * repetition simulates the same slices, so this is the run's host time
 * with most interference from outside the process filtered out. On a
 * shared virtual machine, the median over whole repetitions moved by
 * up to a third between two sets of runs of the same program.
 */
std::vector<std::uint64_t>
fastestSlices(const std::vector<Rep> &reps)
{
    std::vector<std::uint64_t> best = reps.front().sliceNsList;
    for (const auto &r : reps)
        for (std::size_t i = 0; i < best.size() && i < r.sliceNsList.size();
             ++i)
            best[i] = std::min(best[i], r.sliceNsList[i]);
    return best;
}

/**
 * @p scale converts host times to the nominal machine (see
 * SpeedReference); ratios, memory and sim metrics are not scaled.
 */
std::vector<Metric>
endToEnd(const std::vector<Rep> &reps, double setup_s, double rss_mb,
         double scale)
{
    const Rep &first = reps.front();
    const RunStats &s = first.stats;
    std::vector<std::uint64_t> best = fastestSlices(reps);
    double loop_ns = 0;
    for (std::uint64_t ns : best)
        loop_ns += static_cast<double>(ns);
    double finalize_ns = static_cast<double>(first.finalizeNs);
    for (const auto &r : reps)
        finalize_ns = std::min(finalize_ns, static_cast<double>(r.finalizeNs));
    loop_ns *= scale;
    finalize_ns *= scale;
    std::vector<Metric> m;
    m.push_back({"setup_s", setup_s * scale, "s"});
    m.push_back({"sim_kref_per_s", first.refs * 1e6 / (loop_ns + finalize_ns),
                 "kref/s"});
    m.push_back({"host_us_per_epoch", loop_ns * 1e-3 / first.epochs, "us"});
    m.push_back({"host_growth", hostGrowth(best, first.sliceRefs), "ratio"});
    m.push_back({"peak_rss_mb", rss_mb, "MB"});
    m.push_back({"sim_cycles", static_cast<double>(s.cycles), "cycles"});
    m.push_back({"nvm_bytes_per_store",
                 ratio(s.totalNvmWriteBytes(), s.stores), "B/store"});
    return m;
}

std::vector<Metric>
perLayer(const std::vector<Rep> &traced, double overhead, double slowdown)
{
    const double scale = 1.0 / slowdown;
    const Rep &t = traced.front();
    const RunStats &s = t.stats;
    // Host times are scaled to the nominal machine, like the end-to-end
    // ones; medians of scaled values are scaled medians.
    auto med = [&](auto f) { return medianOf(traced, f) * scale; };
    auto us = [](std::uint64_t ns) { return ns * 1e-3; };
    std::vector<Metric> m;
    auto add = [&](const char *name, double v, const char *unit) {
        m.push_back({name, v, unit});
    };

    // harness
    add("harness.setup_us", med([&](const Rep &r) { return us(r.setupNs); }),
        "us");
    add("harness.slice_us", med([&](const Rep &r) { return us(r.sliceNs); }),
        "us");
    add("harness.slices", static_cast<double>(t.slices), "count");
    add("harness.boundary_slice_us_p50", med([&](const Rep &r) {
            return percentile(r.boundarySliceNs, 0.5) * 1e-3;
        }),
        "us");
    add("harness.boundary_slices",
        static_cast<double>(t.boundarySliceNs.size()), "count");
    add("harness.plain_slice_us_p50", med([&](const Rep &r) {
            return percentile(r.plainSliceNs, 0.5) * 1e-3;
        }),
        "us");
    add("harness.finalize_us",
        med([&](const Rep &r) { return us(r.finalizeNs); }), "us");
    add("harness.finalize_drain_cycles",
        static_cast<double>(s.extra.count("finalize_drain_cycles")
                                ? s.extra.at("finalize_drain_cycles")
                                : 0),
        "cycles");

    // workload
    add("workload.gen_calls", static_cast<double>(t.sliceLayers.genCalls),
        "count");
    add("workload.refs", static_cast<double>(t.sliceLayers.genRefs),
        "count");
    add("workload.gen_us",
        med([&](const Rep &r) { return us(r.sliceLayers.genNs); }), "us");
    add("workload.gen_ns_per_ref", med([&](const Rep &r) {
            return ratio(r.sliceLayers.genNs, r.sliceLayers.genRefs);
        }),
        "ns");

    // cpu + cache: slice time not spent in the generator or VersionCtrl
    auto residual = [](const Rep &r) {
        return r.sliceNs - r.sliceLayers.genNs - r.sliceLayers.vctrlNs();
    };
    add("cache.residual_us", med([&](const Rep &r) { return us(residual(r)); }),
        "us");
    add("cache.residual_ns_per_ref",
        med([&](const Rep &r) { return ratio(residual(r), r.refs); }), "ns");
    add("cpu.refs", static_cast<double>(s.refs), "count");
    add("cpu.instructions", static_cast<double>(s.instructions), "count");
    add("cpu.barrier_stall_cycles", static_cast<double>(s.barrierStallCycles),
        "cycles");
    add("cache.l1_hit_ratio", ratio(s.l1Hits, s.l1Hits + s.l1Misses),
        "ratio");
    add("cache.l1_accesses", static_cast<double>(s.l1Hits + s.l1Misses),
        "count");
    add("cache.l2_hit_ratio", ratio(s.l2Hits, s.l2Hits + s.l2Misses),
        "ratio");
    add("cache.l2_accesses", static_cast<double>(s.l2Hits + s.l2Misses),
        "count");
    add("cache.llc_hit_ratio", ratio(s.llcHits, s.llcHits + s.llcMisses),
        "ratio");
    add("cache.llc_accesses", static_cast<double>(s.llcHits + s.llcMisses),
        "count");
    static const char *evict[] = {"cache.evict.capacity",
                                  "cache.evict.coherence",
                                  "cache.evict.tag_walk",
                                  "cache.evict.store_evict",
                                  "cache.evict.epoch_flush"};
    for (std::size_t i = 0; i < std::size(evict); ++i)
        add(evict[i], static_cast<double>(s.evictReason[i]), "count");

    // nvoverlay: CST
    LayerTimes all = t.sliceLayers;
    all.acceptCalls += t.otherLayers.acceptCalls;
    all.observeCalls += t.otherLayers.observeCalls;
    all.vdEpochCalls += t.otherLayers.vdEpochCalls;
    add("nvoverlay.accept_version_calls", static_cast<double>(all.acceptCalls),
        "count");
    add("nvoverlay.accept_ns_per_call", med([&](const Rep &r) {
            return ratio(r.sliceLayers.acceptNs + r.otherLayers.acceptNs,
                         r.sliceLayers.acceptCalls +
                             r.otherLayers.acceptCalls);
        }),
        "ns");
    add("nvoverlay.observe_remote_calls",
        static_cast<double>(all.observeCalls), "count");
    add("nvoverlay.observe_remote_us", med([&](const Rep &r) {
            return us(r.sliceLayers.observeNs + r.otherLayers.observeNs);
        }),
        "us");
    add("nvoverlay.vd_epoch_calls", static_cast<double>(all.vdEpochCalls),
        "count");
    add("nvoverlay.epoch_advances", static_cast<double>(s.epochAdvances),
        "count");
    add("nvoverlay.lamport_advances", static_cast<double>(s.lamportAdvances),
        "count");
    add("nvoverlay.epochs_completed", static_cast<double>(t.epochs), "count");
    add("nvoverlay.rec_epoch", static_cast<double>(t.recEpoch), "epoch");
    add("nvoverlay.tag_walk_write_backs",
        static_cast<double>(s.tagWalkWriteBacks), "count");
    add("nvoverlay.tag_walk_lines_scanned",
        static_cast<double>(s.tagWalkLinesScanned), "count");

    // nvoverlay: MNM
    add("mnm.update_stats_us",
        med([&](const Rep &r) { return us(r.updateStatsNs); }), "us");
    add("mnm.epoch_table_bytes", static_cast<double>(s.epochTableBytes), "B");
    add("mnm.master_table_bytes", static_cast<double>(s.masterTableBytes),
        "B");
    add("mnm.pool_pages_in_use", static_cast<double>(s.poolPagesInUse),
        "count");
    add("mnm.omc_buffer_hit_ratio",
        ratio(s.omcBufferHits, s.omcBufferHits + s.omcBufferMisses), "ratio");
    add("mnm.omc_buffer_accesses",
        static_cast<double>(s.omcBufferHits + s.omcBufferMisses), "count");
    add("mnm.gc_compactions", static_cast<double>(s.gcCompactions), "count");
    add("mnm.gc_bytes_copied", static_cast<double>(s.gcBytesCopied), "B");

    // mem
    static const char *kinds[] = {
        "mem.nvm_write_bytes.data", "mem.nvm_write_bytes.log",
        "mem.nvm_write_bytes.mapping", "mem.nvm_write_bytes.context"};
    for (std::size_t k = 0; k < std::size(kinds); ++k)
        add(kinds[k], static_cast<double>(s.nvmWriteBytes[k]), "B");
    add("mem.nvm_write_ops", static_cast<double>(s.nvmWriteOps), "count");
    add("mem.nvm_read_bytes", static_cast<double>(s.nvmReadBytes), "B");
    add("mem.dram_read_bytes", static_cast<double>(s.dramReadBytes), "B");
    add("mem.dram_write_bytes", static_cast<double>(s.dramWriteBytes), "B");
    add("mem.stores", static_cast<double>(s.stores), "count");

    // recovery
    add("recovery.crash_reset_us",
        med([&](const Rep &r) { return us(r.crashResetNs); }), "us");
    add("recovery.recover_us",
        med([&](const Rep &r) { return us(r.recoverNs); }), "us");
    add("recovery.validate_us",
        med([&](const Rep &r) { return us(r.validateNs); }), "us");
    add("recovery.lines_restored", static_cast<double>(t.linesRestored),
        "count");
    add("snapshot.read_ns_p50",
        med([&](const Rep &r) { return percentile(r.readNs, 0.5); }), "ns");
    add("snapshot.read_ns_p99",
        med([&](const Rep &r) { return percentile(r.readNs, 0.99); }), "ns");
    add("snapshot.reads", static_cast<double>(t.reads), "count");
    add("snapshot.found_ratio", ratio(t.readsFound, t.reads), "ratio");

    add("trace_overhead", overhead, "ratio");
    add("harness.reference_slowdown", slowdown, "ratio");
    return m;
}

// ---------------------------------------------------------------------
// Machine-speed reference
// ---------------------------------------------------------------------

/**
 * Fixed kernels timed between repetitions, standing for the speed of
 * the machine at that moment: a dependent pointer chase through 8 MiB
 * (misses the private L2, waits on the shared last-level cache) and
 * through 64 MiB (mostly memory), a sequential sum over the same
 * 64 MiB (streaming bandwidth) and a dependent integer loop (the
 * core). They are part of the benchmark, not of the simulator, so no
 * change to src/ can move them.
 *
 * On a shared virtual machine the speed of the whole machine changes
 * for minutes at a time: every workload ran up to 2x slower in some
 * stretches. The workloads lean on these resources in different
 * proportions and each kernel tracked some workloads better than
 * others, so a sample is the geometric mean of the four kernel times,
 * each over its time on the nominal machine (a quiet stretch of the
 * 4-vCPU virtual machine the benchmark was defined on). Host times are
 * reported for the nominal machine: divided by slowdown(), the median
 * sample of the run.
 */
class SpeedReference
{
  public:
    SpeedReference() : small_(cycle(8u << 20)), large_(cycle(64u << 20)) {}

    /** Time each kernel once and keep their combined slowdown. */
    void
    sample()
    {
        double ratios[] = {chase(small_, 200000) / 100.0,
                           chase(large_, 100000) / 130.0,
                           sum(large_) / 8.9e6, loop(2000000) / 2.23};
        double log_sum = 0;
        for (double r : ratios)
            log_sum += std::log(r);
        samples_.push_back(std::exp(log_sum / std::size(ratios)));
    }

    double slowdown() const { return median(samples_); }
    std::size_t samples() const { return samples_.size(); }
    /** Resident bytes of the kernels' buffers, held all run long. */
    double bytes() const
    {
        return static_cast<double>((small_.size() + large_.size()) *
                                   sizeof(std::uint32_t));
    }

  private:
    /** One random cycle through @p bytes of successor indices. */
    static std::vector<std::uint32_t>
    cycle(std::size_t bytes)
    {
        std::vector<std::uint32_t> order(bytes / sizeof(std::uint32_t));
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<std::uint32_t>(i);
        Rng rng(0x5eed);
        for (std::size_t i = order.size() - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(i + 1)]);
        std::vector<std::uint32_t> next(order.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            next[order[i]] = order[(i + 1) % order.size()];
        return next;
    }

    /** ns per hop. */
    double
    chase(const std::vector<std::uint32_t> &next, unsigned hops)
    {
        std::uint32_t p = static_cast<std::uint32_t>(sink_ % next.size());
        auto a = Clock::now();
        for (unsigned i = 0; i < hops; ++i)
            p = next[p];
        auto b = Clock::now();
        sink_ += p;
        return static_cast<double>(nsBetween(a, b)) / hops;
    }

    /** ns per pass. */
    double
    sum(const std::vector<std::uint32_t> &v)
    {
        std::uint64_t s = 0;
        auto a = Clock::now();
        for (std::uint32_t x : v)
            s += x;
        auto b = Clock::now();
        sink_ += s;
        return static_cast<double>(nsBetween(a, b));
    }

    /** ns per iteration. */
    double
    loop(unsigned iters)
    {
        std::uint64_t x = sink_ | 1;
        auto a = Clock::now();
        for (unsigned i = 0; i < iters; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            x ^= x >> 29;
        }
        auto b = Clock::now();
        sink_ += x;
        return static_cast<double>(nsBetween(a, b)) / iters;
    }

    std::vector<std::uint32_t> small_, large_;
    std::vector<double> samples_;
    std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool selftest = false;
    std::string spansPath;
};

/** Repetitions always measured, whatever --seconds says. */
constexpr unsigned minReps = 3;
/** Extra set-up-only System constructions after each untraced
 *  repetition: at least the minimum, then more until the budget is
 *  spent. Spreading them over the run, instead of timing them in one
 *  burst, keeps a slow phase of the machine from owning the median. */
constexpr unsigned setupOnlyMinPerRep = 2;
constexpr unsigned setupOnlyMaxPerRep = 25;
constexpr double setupBudgetPerRepS = 0.25;

/** Host time to construct (and destroy) one System, in ns. */
std::uint64_t
timeSetup(const Spec &spec, const Config &cfg)
{
    auto a = Clock::now();
    auto sys = std::make_unique<System>(cfg, "nvoverlay", spec.workload);
    auto b = Clock::now();
    return nsBetween(a, b);
}

void
logRep(const Spec &spec, const Rep &r)
{
    std::fprintf(stderr,
                 "[perfbench] %s %s rep: setup %.4f s, slices %.4f s, "
                 "finalize %.4f s, recover %.4f s, read p50 %.0f ns, "
                 "refs %llu, stores %llu, epochs %llu, rec-epoch %llu\n",
                 spec.name.c_str(), modeName(r.mode), r.setupNs * 1e-9,
                 r.sliceNs * 1e-9, r.finalizeNs * 1e-9,
                 (r.crashResetNs + r.recoverNs) * 1e-9,
                 percentile(r.readNs, 0.5),
                 static_cast<unsigned long long>(r.refs),
                 static_cast<unsigned long long>(r.stores),
                 static_cast<unsigned long long>(r.epochs),
                 static_cast<unsigned long long>(r.recEpoch));
}

int
runBench(const Args &args)
{
    const Spec *spec = findSpec(args.workload);
    if (!spec) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    Config cfg = specConfig(*spec, args.seed, false);
    Cycle crash = crashCycleFor(*spec, args.seed, false);
    SpanLog spans(args.trace && !args.spansPath.empty());
    std::uint64_t root = spans.open(0, "run", Clock::now());

    std::vector<std::string> errors;
    std::uint64_t attempted = 0, failed = 0;
    auto check = [&](const std::string &what, const std::string &err) {
        ++attempted;
        if (!err.empty()) {
            ++failed;
            errors.push_back(what + ": " + err);
        }
    };

    // A first, untimed repetition faults in the heap the later ones
    // reuse, so timed repetitions do not pay the process's first-touch
    // page faults: a plain System::run() with --trace 1 (it is also
    // the identity oracle), a sliced run otherwise. Then timed
    // repetitions run until --seconds have passed; with --trace 1
    // untraced and traced slice runs alternate.
    // The reference kernels' buffers are resident from the start, so
    // the peak RSS holds them whatever phase sets the peak; the machine's
    // speed is sampled after every timed repetition.
    SpeedReference speed;
    Rep warmup = runRep(*spec, cfg, crash, args.seed,
                        args.trace ? Mode::Plain : Mode::Sliced, spans, root);
    logRep(*spec, warmup);
    std::vector<Rep> untraced, traced;
    std::vector<double> setup_s;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    for (unsigned i = 0;; ++i) {
        bool want_traced = args.trace && (i % 2 == 1);
        Rep rep = runRep(*spec, cfg, crash, args.seed,
                         want_traced ? Mode::Traced : Mode::Sliced, spans,
                         root);
        logRep(*spec, rep);
        if (!args.trace) {
            // Set-up is short next to a run: time extra constructions
            // so its median rests on enough samples.
            setup_s.push_back(rep.setupNs * 1e-9);
            double spent = 0;
            for (unsigned k = 0;
                 k < setupOnlyMaxPerRep &&
                 (k < setupOnlyMinPerRep || spent < setupBudgetPerRepS);
                 ++k) {
                setup_s.push_back(timeSetup(*spec, cfg) * 1e-9);
                spent += setup_s.back();
            }
        }
        speed.sample();
        (want_traced ? traced : untraced).push_back(std::move(rep));
        std::size_t done = untraced.size() + traced.size();
        bool enough = args.trace
                          ? (!traced.empty() && !untraced.empty())
                          : done >= minReps;
        if (enough && Clock::now() >= deadline)
            break;
    }
    double rss_mb = peakRssMb() - speed.bytes() / (1 << 20);
    // Every repetition must reproduce the same simulation exactly.
    const Rep &ref = untraced.front();
    std::vector<const Rep *> all = {&warmup};
    for (const auto *v : {&untraced, &traced})
        for (const auto &r : *v)
            all.push_back(&r);
    for (const Rep *r : all) {
        std::string err = r->error;
        if (err.empty() && r->fp.report != ref.fp.report)
            err = std::string(modeName(r->mode)) +
                  " run's statistics differ from the first timed run";
        if (err.empty() && (r->recEpoch != ref.recEpoch ||
                            r->linesRestored != ref.linesRestored))
            err = "recovery differs between repetitions";
        if (err.empty() && r->mode == Mode::Traced && !r->closureOk)
            err = "layer times do not close under the slice time";
        check(std::string(modeName(r->mode)) + " run", err);
    }

    // Untimed correctness pass.
    auto tv = Clock::now();
    Verdict verdict = crash ? verifyCrash(*spec, cfg, crash, ref)
                            : verifyClean(*spec, cfg, args.seed, ref);
    spans.add(root, "verify", tv, Clock::now());
    check("correctness pass", verdict.error);
    std::fprintf(stderr,
                 "[perfbench] %s seed=%llu timed reps=%zu+%zu verify: "
                 "%llu lines checked, %llu in-flight skips, %llu "
                 "time-travel reads\n",
                 spec->name.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 untraced.size(), traced.size(),
                 static_cast<unsigned long long>(verdict.linesChecked),
                 static_cast<unsigned long long>(verdict.inflightSkips),
                 static_cast<unsigned long long>(verdict.travelChecked));
    for (const auto &e : errors)
        std::fprintf(stderr, "[perfbench] FAILED %s\n", e.c_str());
    std::fprintf(stderr,
                 "[perfbench] reference kernels: median slowdown %.4f over "
                 "%zu samples; host times divided by it\n",
                 speed.slowdown(), speed.samples());

    std::vector<Metric> metrics;
    if (args.trace) {
        double overhead =
            medianOf(traced, [](const Rep &r) { return r.sliceNs * 1.0; }) /
            medianOf(untraced, [](const Rep &r) { return r.sliceNs * 1.0; });
        metrics = perLayer(traced, overhead, speed.slowdown());
        const Rep &t = traced.front();
        std::uint64_t vctrl = t.sliceLayers.vctrlNs();
        std::uint64_t gen = t.sliceLayers.genNs;
        std::fprintf(stderr,
                     "[perfbench] layer closure (first traced run): "
                     "gen %.0f + vctrl %.0f + residual %.0f us = slices "
                     "%.0f us; traced/untraced slice time %.4f\n",
                     gen * 1e-3, vctrl * 1e-3,
                     (t.sliceNs - gen - vctrl) * 1e-3, t.sliceNs * 1e-3,
                     overhead);
    } else {
        metrics = endToEnd(untraced, median(setup_s), rss_mb,
                           1.0 / speed.slowdown());
    }
    spans.close(root, Clock::now());
    if (spans.enabled()) {
        std::string run_id = spec->name + "-seed" +
                             std::to_string(args.seed) + "-" +
                             std::to_string(static_cast<unsigned long long>(
                                 Clock::now().time_since_epoch().count()));
        if (!spans.write(args.spansPath, run_id))
            check("span output", "cannot write " + args.spansPath);
    }
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}

/**
 * Byte-identity of the outside timers at a small size: for each
 * workload, a plain run, a sliced run and a traced run (wrapper,
 * proxy, explicit calls) must produce identical RunStats and
 * stats-JSON reports, and the traced layer times must close.
 */
int
selftest()
{
    int failures = 0;
    for (const Spec &spec : specs()) {
        const std::uint64_t seed = 7;
        Config cfg = specConfig(spec, seed, true);
        Cycle crash = crashCycleFor(spec, seed, true);
        SpanLog spans(false);
        Rep plain = runRep(spec, cfg, crash, seed, Mode::Plain, spans, 0);
        Rep sliced = runRep(spec, cfg, crash, seed, Mode::Sliced, spans, 0);
        Rep traced = runRep(spec, cfg, crash, seed, Mode::Traced, spans, 0);
        std::vector<std::string> errs;
        for (const Rep *r : {&plain, &sliced, &traced}) {
            if (!r->error.empty())
                errs.push_back(std::string(modeName(r->mode)) + ": " +
                               r->error);
            if (r->fp.stats != plain.fp.stats)
                errs.push_back(std::string(modeName(r->mode)) +
                               ": RunStats differ from the plain run");
            if (r->fp.report != plain.fp.report)
                errs.push_back(std::string(modeName(r->mode)) +
                               ": stats JSON differs from the plain run");
        }
        if (!traced.closureOk)
            errs.push_back("traced: layer times do not close");
        if (traced.sliceLayers.genCalls == 0 ||
            traced.sliceLayers.acceptCalls == 0 ||
            traced.sliceLayers.vdEpochCalls == 0)
            errs.push_back("traced: a wrapper saw no calls");
        Verdict v = crash ? verifyCrash(spec, cfg, crash, plain)
                          : verifyClean(spec, cfg, seed, plain);
        if (!v.error.empty())
            errs.push_back("correctness pass: " + v.error);
        std::printf("%-18s %s (refs %llu, epochs %llu, rec-epoch %llu, "
                    "gen calls %llu, accept calls %llu, lines checked "
                    "%llu)\n",
                    spec.name.c_str(), errs.empty() ? "ok" : "FAILED",
                    static_cast<unsigned long long>(plain.refs),
                    static_cast<unsigned long long>(plain.epochs),
                    static_cast<unsigned long long>(plain.recEpoch),
                    static_cast<unsigned long long>(
                        traced.sliceLayers.genCalls),
                    static_cast<unsigned long long>(
                        traced.sliceLayers.acceptCalls),
                    static_cast<unsigned long long>(v.linesChecked));
        for (const auto &e : errs)
            std::printf("  %s\n", e.c_str());
        failures += errs.empty() ? 0 : 1;
    }
    return failures == 0 ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--selftest") {
            args.selftest = true;
            continue;
        }
        if (a != "--workload" && a != "--seed" && a != "--seconds" &&
            a != "--trace" && a != "--spans")
            return false;
        if (!(v = next()))
            return false;
        char *end = nullptr;
        if (a == "--workload") {
            args.workload = v;
        } else if (a == "--spans") {
            args.spansPath = v;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v, &end, 10);
            if (*end)
                return false;
        } else if (a == "--seconds") {
            args.seconds = std::strtod(v, &end);
            if (*end || args.seconds < 0)
                return false;
        } else {
            std::string t = v;
            if (t != "0" && t != "1")
                return false;
            args.trace = t == "1";
        }
    }
    return args.selftest || !args.workload.empty();
}

} // namespace
} // namespace nvo

int
main(int argc, char **argv)
{
    nvo::setQuiet(true);
    // Keep freed memory in the process (no trimming, no per-block
    // mmap below 32 MiB), so repetitions after the warm-up reuse
    // already-faulted pages instead of paying first touch again.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    nvo::Args args;
    if (!nvo::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: nvo_perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--spans <path>]\n"
                     "       nvo_perfbench --selftest\n");
        return 2;
    }
    return args.selftest ? nvo::selftest() : nvo::runBench(args);
}
