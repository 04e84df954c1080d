/**
 * @file
 * Adaptive policy engine (src/policy, docs/POLICY.md).
 *
 * Controller oracles reproduce the integer arithmetic by hand so any
 * drift in the PI step is a test diff, not a tuning surprise.
 * System-level tests pin the load-bearing contracts: a disabled
 * policy leaves the stats JSON byte-unchanged, and the epoch pacer
 * demonstrably reacts to `nvm.write_bw_budget` — a run with the
 * budget set must steer the epoch length away from the same run
 * without it. Also covered: NVM wear accounting, the phased workload
 * wrapper, and the epoch-series row cap.
 */

#include <gtest/gtest.h>

#include <regex>
#include <sstream>

#include "harness/experiment.hh"
#include "harness/system.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/stats_json.hh"
#include "policy/controller.hh"
#include "policy/engine.hh"
#include "workload/phase_shift.hh"

namespace nvo
{
namespace
{

// --- PI controller oracles ------------------------------------------

TEST(PidController, PureProportionalTracksScaledError)
{
    policy::PidParams p;
    p.setpoint = 1000;
    p.kpNum = 64;   // gain 1.0 over kGainDen=64
    policy::PidController pid(p);
    EXPECT_EQ(pid.step(900), 100);    // err = +100
    EXPECT_EQ(pid.step(1100), -100);  // err = -100
    EXPECT_EQ(pid.step(1000), 0);
}

TEST(PidController, IntegralAccumulatesPersistentError)
{
    policy::PidParams p;
    p.setpoint = 100;
    p.kiNum = 64;   // integral-only, gain 1.0
    policy::PidController pid(p);
    // Constant err = +10: the integrator ramps 10, 20, 30...
    EXPECT_EQ(pid.step(90), 10);
    EXPECT_EQ(pid.step(90), 20);
    EXPECT_EQ(pid.step(90), 30);
    EXPECT_EQ(pid.integrator(), 30);
}

TEST(PidController, DivisionTruncatesTowardZeroBothSigns)
{
    // kp=1/64: out = err/64 with C++ truncation — -63/64 is 0, not
    // -1. The engine's arithmetic depends on this exact rounding.
    policy::PidParams p;
    p.kpNum = 1;
    policy::PidController pid(p);
    EXPECT_EQ(pid.step(-63), 0);    // err = +63  -> 63/64  = 0
    EXPECT_EQ(pid.step(63), 0);     // err = -63  -> -63/64 = 0
    pid.reset();
    EXPECT_EQ(pid.step(-65), 1);    // err = +65  -> 65/64  = 1
    pid.reset();
    EXPECT_EQ(pid.step(65), -1);
}

TEST(PidController, OutputClampAndAntiWindup)
{
    policy::PidParams p;
    p.setpoint = 0;
    p.kiNum = 64;
    p.outMin = -50;
    p.outMax = 50;
    p.integMin = -80;
    p.integMax = 80;
    policy::PidController pid(p);
    // err = +100 each step: the integrator saturates at 80 (not
    // 100/200/...), and the output pins at the clamp.
    EXPECT_EQ(pid.step(-100), 50);
    EXPECT_EQ(pid.integrator(), 80);
    EXPECT_EQ(pid.step(-100), 50);
    EXPECT_EQ(pid.integrator(), 80);
    // One opposite-sign error immediately unwinds from the clamp —
    // the windup bound is what keeps recovery prompt.
    EXPECT_EQ(pid.step(100), -20);   // integ 80-100 = -20
    EXPECT_EQ(pid.integrator(), -20);
}

TEST(PidController, SetpointRetargetKeepsHistory)
{
    policy::PidParams p;
    p.setpoint = 10;
    p.kiNum = 64;
    policy::PidController pid(p);
    pid.step(0);   // integ = 10
    pid.setSetpoint(20);
    EXPECT_EQ(pid.step(0), 30);   // integ = 10 + 20
    EXPECT_EQ(pid.lastError(), 20);
}

// --- Phased workload wrapper ----------------------------------------

TEST(PhaseShift, ParseSpecSplitsNamesAndOps)
{
    auto spec =
        PhaseShiftWorkload::parseSpec("btree:2048,kmeans:100");
    ASSERT_EQ(spec.size(), 2u);
    EXPECT_EQ(spec[0].first, "btree");
    EXPECT_EQ(spec[0].second, 2048u);
    EXPECT_EQ(spec[1].first, "kmeans");
    EXPECT_EQ(spec[1].second, 100u);
}

TEST(PhaseShiftDeath, MalformedSpecsAreFatal)
{
    EXPECT_DEATH(PhaseShiftWorkload::parseSpec(""), "wl.phases");
    EXPECT_DEATH(PhaseShiftWorkload::parseSpec("btree"), "wl.phases");
    EXPECT_DEATH(PhaseShiftWorkload::parseSpec("btree:0"),
                 "wl.phases");
}

TEST(PhaseShift, ThreadsAdvanceThroughEveryPhase)
{
    Config cfg = defaultConfig();
    cfg.set("wl.threads", std::uint64_t(2));
    cfg.set("wl.phases", "hashtable:20,btree:30");
    WorkloadBase::Params p;
    p.numThreads = 2;
    p.seed = 1;
    PhaseShiftWorkload wl(p, cfg);
    ASSERT_EQ(wl.numPhases(), 2u);
    EXPECT_EQ(wl.phaseName(0), "hashtable");
    EXPECT_EQ(wl.phaseOps(1), 30u);
    EXPECT_EQ(wl.minPhase(), 0u);

    // Walk thread 0 into phase 1 and on to its very last op; thread
    // 1 stays in phase 0, so the run-level phase (the slowest
    // thread's) must not move. The outer quota (sum of phase ops)
    // stops generation before the final phase reports exhaustion, so
    // a drained thread still reads as "in" the last phase.
    std::vector<MemRef> refs;
    for (int i = 0; i < 21; ++i) {
        refs.clear();
        ASSERT_TRUE(wl.nextOp(0, refs));
        EXPECT_FALSE(refs.empty());
    }
    EXPECT_EQ(wl.phaseOf(0), 1u);
    for (int i = 21; i < 50; ++i) {
        refs.clear();
        ASSERT_TRUE(wl.nextOp(0, refs));
    }
    EXPECT_EQ(wl.phaseOf(0), 1u);
    EXPECT_EQ(wl.phaseOf(1), 0u);
    EXPECT_EQ(wl.minPhase(), 0u);
    refs.clear();
    EXPECT_FALSE(wl.nextOp(0, refs));   // quota = sum of phases
}

TEST(PhaseShift, PerPhaseOverridesRewriteOntoInnerConfig)
{
    // Identical phases except the phase-1 override: the generated
    // streams must differ, proving wl.phase1.* reached the inner
    // workload.
    Config a = defaultConfig();
    a.set("wl.threads", std::uint64_t(1));
    a.set("wl.phases", "kmeans:8,kmeans:8");
    Config b = a;
    b.set("wl.phase1.kmeans.points", std::uint64_t(64));

    WorkloadBase::Params p;
    p.numThreads = 1;
    p.seed = 5;
    PhaseShiftWorkload wa(p, a), wb(p, b);
    bool diverged = false;
    std::vector<MemRef> ra, rb;
    for (int i = 0; i < 16; ++i) {
        ra.clear();
        rb.clear();
        ASSERT_TRUE(wa.nextOp(0, ra));
        ASSERT_TRUE(wb.nextOp(0, rb));
        if (ra.size() != rb.size()) {
            diverged = true;
            break;
        }
        for (std::size_t j = 0; j < ra.size(); ++j)
            if (ra[j].addr != rb[j].addr)
                diverged = true;
    }
    EXPECT_TRUE(diverged);
}

// --- Epoch-series row cap -------------------------------------------

TEST(EpochSeries, RowCapDecimatesAndBoundsMemory)
{
    obs::EpochSeries series;
    std::uint64_t v = 0;
    series.addProbe("v", [&] { return v; });
    series.setMaxRows(8);
    for (std::uint64_t i = 1; i <= 1000; ++i) {
        v = i;
        series.sample(i, i * 10);
    }
    // Memory stays bounded no matter how long the run gets...
    EXPECT_LE(series.numSamples(), 8u);
    EXPECT_GE(series.numSamples(), 4u);
    // ...the decimation factor reports the row spacing...
    EXPECT_GE(series.decimation(), 1000u / 8u);
    // ...and the kept rows are genuine samples in order.
    for (std::size_t r = 1; r < series.numSamples(); ++r)
        EXPECT_LT(series.value(r - 1, 0), series.value(r, 0));

    // The closing row always lands, even mid-decimation-skip.
    v = 5000;
    series.sampleForced(1001, 10010);
    EXPECT_EQ(series.value(series.numSamples() - 1, 2), 5000u);
}

// --- System-level: NVM wear accounting ------------------------------

Config
tinyConfig(std::uint64_t ops)
{
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(16));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", ops);
    return cfg;
}

TEST(NvmWear, StatsExportedOnlyWhenEnabled)
{
    Config off = tinyConfig(120);
    System soff(off, "nvoverlay", "hashtable");
    soff.run();
    EXPECT_EQ(soff.stats().extra.count("nvm_wear_regions"), 0u);

    Config on = tinyConfig(120);
    on.set("nvm.wear.enabled", std::uint64_t(1));
    System son(on, "nvoverlay", "hashtable");
    son.run();
    const auto &ex = son.stats().extra;
    ASSERT_EQ(ex.count("nvm_wear_regions"), 1u);
    EXPECT_GT(ex.at("nvm_wear_regions"), 0u);
    EXPECT_GT(ex.at("nvm_wear_line_writes"), 0u);
    // max >= mean by construction; ratio is x1000-scaled max/mean.
    EXPECT_GE(ex.at("nvm_wear_max_writes") * 1000,
              ex.at("nvm_wear_mean_writes_x1000"));
    EXPECT_GE(ex.at("nvm_wear_ratio_x1000"), 1000u);
    // The wear model only observes; the simulated outcome must be
    // identical with it on or off.
    EXPECT_EQ(son.stats().cycles, soff.stats().cycles);
    EXPECT_EQ(son.stats().totalNvmWriteBytes(),
              soff.stats().totalNvmWriteBytes());
}

// --- System-level: the pacer reacts to the budget -------------------

TEST(PolicyEngineSystem, EpochPacerSteersLengthTowardBudget)
{
    // Seeded must-fail: without the budget the epoch length never
    // moves off its configured value; with it the pacer must actuate
    // and leave the length somewhere else. A regression that silently
    // disconnects the controller from the knob fails the inequality.
    Config base = tinyConfig(600);
    base.set("epoch.stores_global", std::uint64_t(8000));

    System plain(base, "nvoverlay", "hashtable");
    plain.run();
    EXPECT_EQ(plain.stats().extra.count("policy_evals"), 0u);

    Config paced = base;
    paced.set("policy.enabled", std::uint64_t(1));
    paced.set("nvm.write_bw_budget", std::uint64_t(1800));
    System sys(paced, "nvoverlay", "hashtable");
    sys.run();
    const auto &ex = sys.stats().extra;
    ASSERT_EQ(ex.count("policy_evals"), 1u);
    EXPECT_GT(ex.at("policy_evals"), 0u);
    EXPECT_GT(ex.at("policy_epoch_sets"), 0u);
    // Initial per-VD length = stores_global / uops_per_ref / 8 VDs.
    std::uint64_t initial = 8000 / 16 / 8;
    EXPECT_NE(ex.at("policy_epoch_len"), initial);

    // The stats JSON carries the engine's own section.
    const policy::PolicyEngine *pe = sys.policyEngine();
    ASSERT_NE(pe, nullptr);
    std::ostringstream os;
    obs::writeStatsJson(os, "nvoverlay", "hashtable", sys.config(),
                        sys.stats(), &sys.epochSeries(), 0.0,
                        [pe](obs::JsonWriter &w) { pe->writeJson(w); });
    EXPECT_NE(os.str().find("\"policy\":{\"evals\":"),
              std::string::npos);
}

TEST(PolicyEngineSystem, DisabledPolicyLeavesStatsByteUnchanged)
{
    // policy.enabled=0 must not merely skip actuation — the stats
    // JSON (resolved config included) has to be byte-identical to a
    // run that never mentioned the policy keys, modulo the keys
    // themselves.
    auto statsJson = [](const Config &cfg) {
        System sys(cfg, "nvoverlay", "hashtable");
        sys.run();
        std::ostringstream os;
        obs::writeStatsJson(os, "nvoverlay", "hashtable",
                            sys.config(), sys.stats(),
                            &sys.epochSeries(), 0.0);
        // Host wall-clock extras are the one legitimately
        // nondeterministic field.
        return std::regex_replace(
            os.str(),
            std::regex(",\"host_(run|finalize)_us\":[0-9]+"), "");
    };
    std::string pristine = statsJson(tinyConfig(150));
    Config off = tinyConfig(150);
    off.set("policy.enabled", std::uint64_t(0));
    std::string disabled = std::regex_replace(
        statsJson(off),
        std::regex("\"policy\\.enabled\":\"0\",?"), "");
    EXPECT_EQ(disabled, pristine);
}

} // namespace
} // namespace nvo
