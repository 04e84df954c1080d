/**
 * @file
 * End-to-end smoke tests: small full-system runs per scheme, and the
 * headline recovery-correctness property for NVOverlay.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "fault/crash_sim.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "nvoverlay/nvoverlay_scheme.hh"

namespace nvo
{
namespace
{

Config
smallConfig()
{
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(300));
    cfg.set("epoch.stores_global", std::uint64_t(4000));
    cfg.set("wl.btree.prefill", std::uint64_t(2048));
    cfg.set("wl.art.prefill", std::uint64_t(2048));
    cfg.set("wl.rbtree.prefill", std::uint64_t(2048));
    cfg.set("wl.hashtable.prefill", std::uint64_t(2048));
    return cfg;
}

TEST(Smoke, NoneSchemeRuns)
{
    setQuiet(true);
    Config cfg = smallConfig();
    System sys(cfg, "none", "btree");
    sys.run();
    EXPECT_GT(sys.stats().cycles, 0u);
    EXPECT_GT(sys.stats().stores, 0u);
    EXPECT_EQ(sys.hierarchy().checkInvariants(), "");
}

TEST(Smoke, NVOverlayRunsAndRecovers)
{
    setQuiet(true);
    Config cfg = smallConfig();
    cfg.set("sim.track_writes", "true");
    System sys(cfg, "nvoverlay", "btree");
    sys.run();
    EXPECT_EQ(sys.hierarchy().checkInvariants(), "");

    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    EXPECT_GT(scheme.backend().recEpoch(), 0u);
    EXPECT_TRUE(sys.tracker()->epochsMonotonic());

    // The correctness theorem: after a power failure every recovered
    // line matches the last committed store with epoch <= rec-epoch.
    const fault::CrashReport rep = fault::crashAndRecover(sys);
    EXPECT_GT(rep.linesRestored, 0u);
    EXPECT_EQ(rep.error, "");
    EXPECT_GT(rep.linesChecked, 0u);
    EXPECT_EQ(rep.mismatches, 0u);
}

TEST(Smoke, AllSchemesRunBTree)
{
    setQuiet(true);
    for (const char *scheme :
         {"swlog", "swshadow", "hwshadow", "picl", "picl-l2"}) {
        Config cfg = smallConfig();
        cfg.set("wl.ops", std::uint64_t(100));
        System sys(cfg, scheme, "btree");
        sys.run();
        EXPECT_GT(sys.stats().cycles, 0u) << scheme;
        EXPECT_EQ(sys.hierarchy().checkInvariants(), "") << scheme;
    }
}

TEST(Smoke, AllWorkloadsRunNone)
{
    setQuiet(true);
    for (const auto &wl : paperWorkloads()) {
        Config cfg = smallConfig();
        cfg.set("wl.ops", std::uint64_t(60));
        System sys(cfg, "none", wl);
        sys.run();
        EXPECT_GT(sys.stats().refs, 0u) << wl;
        EXPECT_EQ(sys.hierarchy().checkInvariants(), "") << wl;
    }
}

} // namespace
} // namespace nvo
