/**
 * @file
 * Crash-campaign driver: seeded crash points, recovery verification
 * against the shadow tracker, and detection of a deliberately seeded
 * missing-barrier durability bug (paper Sec. V-E, "crash anywhere").
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/log.hh"
#include "fault/crash_sim.hh"
#include "fault/fault.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"

namespace nvo
{
namespace
{

Config
smallConfig()
{
    setQuiet(true);
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(400));
    cfg.set("epoch.stores_global", std::uint64_t(30000));
    return cfg;
}

TEST(CrashSim, PowerCutAtCycleRecoversConsistently)
{
    Config cfg = smallConfig();
    fault::CrashSimulator sim(cfg, "nvoverlay", "btree");
    // 200 k lands before the first recoverable epoch: nothing to
    // check. Every later cut recovers something and must check it.
    for (Cycle cut : {200000ull, 1000000ull, 1200000ull, 1600000ull}) {
        fault::CrashPlan plan;
        plan.cycle = cut;
        fault::CrashReport rep = sim.run(plan);
        EXPECT_TRUE(rep.crashed);
        EXPECT_TRUE(rep.consistent())
            << "cut at " << cut << ": " << rep.mismatches
            << " mismatches, error '" << rep.error << "'";
        if (cut == 200000) {
            EXPECT_EQ(rep.recEpoch, 0u);
            EXPECT_EQ(rep.linesChecked, 0u);
        } else {
            EXPECT_GT(rep.recEpoch, 0u) << "cut at " << cut;
        }
        if (rep.recEpoch > 0) {
            EXPECT_GT(rep.linesChecked, 0u) << "cut at " << cut;
        }
    }
}

TEST(CrashSim, PlanThatNeverFiresVerifiesFinalImage)
{
    // A plan that never fires, by cycle or by fault point, lets the
    // run complete with a clean finalize, so the check sees the
    // final image of a completed run.
    Config cfg = smallConfig();
    cfg.set("sim.track_writes", "true");
    cfg.set("persist.armed", "true");
    System sys(cfg, "nvoverlay", "btree");
    sys.run();
    const fault::CrashReport completed = fault::crashAndRecover(sys);
    ASSERT_GT(completed.linesChecked, 0u);

    std::vector<fault::CrashPlan> plans(1);
    plans[0].cycle = 1ull << 40;   // far beyond the run's last cycle
    if (fault::enabled) {
        plans.emplace_back();
        plans[1].point = "omc.insert";
        plans[1].hit = 1ull << 40;   // far beyond any real hit count
    }
    fault::CrashSimulator sim(cfg, "nvoverlay", "btree");
    for (const fault::CrashPlan &plan : plans) {
        fault::CrashReport rep = sim.run(plan);
        const std::string kind = plan.point.empty() ? "cycle" : "point";
        EXPECT_FALSE(rep.crashed) << kind;
        EXPECT_TRUE(rep.firedPoint.empty()) << kind;
        EXPECT_TRUE(rep.consistent()) << kind;
        EXPECT_EQ(rep.recEpoch, completed.recEpoch) << kind;
        EXPECT_EQ(rep.linesChecked, completed.linesChecked) << kind;
    }
}

TEST(CrashSim, CampaignPassesOnHealthyProtocol)
{
    Config cfg = smallConfig();
    fault::CampaignParams params;
    params.workloads = {"btree", "kmeans"};
    params.trials = 8;
    params.seed = 42;
    fault::CampaignResult res = runCrashCampaign(cfg, params);
    EXPECT_EQ(res.trials, 8u);
    EXPECT_TRUE(res.passed()) << res.failingRepro;
    EXPECT_GT(res.linesChecked, 0u);
}

#ifdef NVO_FAULT_ENABLED

TEST(CrashSim, PointCrashUnwindsMidOperation)
{
    Config cfg = smallConfig();
    fault::CrashSimulator sim(cfg, "nvoverlay", "btree");
    fault::CrashPlan plan;
    plan.point = "omc.merge.version";
    plan.hit = 7;
    fault::CrashReport rep = sim.run(plan);
    EXPECT_TRUE(rep.crashed);
    EXPECT_EQ(rep.firedPoint, "omc.merge.version");
    EXPECT_EQ(rep.firedHit, 7u);
    EXPECT_TRUE(rep.consistent())
        << rep.mismatches << " mismatches, error '" << rep.error
        << "'";
}

TEST(CrashSim, TransientNvmErrorsAreRetried)
{
    // Three consecutive device-write errors on the OMC drain path:
    // the retry/backoff loop must absorb them (no crash, consistent
    // final image) and account each retry.
    Config cfg = smallConfig();
    cfg.set("sim.track_writes", "true");
    fault::FaultPlan fp;
    fp.nvmErrorAt("omc.device_write", 5, 3);
    fault::ScopedPlan armed(std::move(fp));
    System sys(cfg, "nvoverlay", "btree");
    sys.run();
    auto it = sys.stats().extra.find("nvm_write_retries");
    ASSERT_NE(it, sys.stats().extra.end());
    EXPECT_EQ(it->second, 3u);
}

TEST(CrashSim, SeededMissingBarrierBugIsCaught)
{
    // mnm.test_skip_rec_barrier persists the rec-epoch word without
    // fencing the merge writes before it — the campaign must see
    // recovery mismatches for crashes that land after a rec-epoch
    // advance.
    Config cfg = smallConfig();
    cfg.set("mnm.test_skip_rec_barrier", "true");
    fault::CampaignParams params;
    params.workloads = {"btree"};
    params.trials = 10;
    params.seed = 7;
    fault::CampaignResult res = runCrashCampaign(cfg, params);
    EXPECT_FALSE(res.passed())
        << "a missing persist barrier must not survive the campaign";
    EXPECT_FALSE(res.failingRepro.empty());
}

#endif // NVO_FAULT_ENABLED

} // namespace
} // namespace nvo
