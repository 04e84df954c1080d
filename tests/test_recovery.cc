/**
 * @file
 * Crash-recovery correctness: the headline property (DESIGN.md
 * Sec. 2). Full-system runs crash at arbitrary points; recovery
 * rebuilds the image from the persistent master table and the result
 * must equal, per line, the last committed store with epoch <=
 * rec-epoch. Parameterized across workloads, seeds, epoch lengths,
 * VD widths, and crash points.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/log.hh"
#include "fault/crash_sim.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "nvoverlay/recovery.hh"
#include "nvoverlay/snapshot_reader.hh"

namespace nvo
{
namespace
{

Config
recoveryConfig()
{
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(400));
    cfg.set("wl.btree.prefill", std::uint64_t(2048));
    cfg.set("wl.art.prefill", std::uint64_t(2048));
    cfg.set("wl.rbtree.prefill", std::uint64_t(2048));
    cfg.set("wl.hashtable.prefill", std::uint64_t(2048));
    cfg.set("sim.track_writes", "true");
    return cfg;
}

/** Run, optionally crash, recover, and check the theorem. */
void
checkRecovery(Config cfg, const std::string &workload, Cycle crash_at)
{
    setQuiet(true);
    System sys(cfg, "nvoverlay", workload);
    if (crash_at == 0)
        sys.run();
    else
        sys.runUntil(crash_at);

    ASSERT_EQ(sys.hierarchy().checkInvariants(), "");
    ASSERT_TRUE(sys.tracker()->epochsMonotonic());

    const fault::CrashReport rep = fault::crashAndRecover(sys);
    EXPECT_EQ(rep.error, "");
    if (crash_at == 0) {
        EXPECT_GT(rep.recEpoch, 0u)
            << "clean finalize certifies every epoch";
    }
    EXPECT_EQ(rep.mismatches, 0u)
        << workload << " crash@" << crash_at << " rec="
        << rep.recEpoch << " checked=" << rep.linesChecked;
    if (rep.recEpoch > 0) {
        EXPECT_GT(rep.linesChecked, 0u);
    }
}

using RecoveryParam = std::tuple<std::string, std::uint64_t>;

class RecoveryAcrossWorkloads
    : public ::testing::TestWithParam<RecoveryParam>
{
};

TEST_P(RecoveryAcrossWorkloads, CleanShutdownRecovers)
{
    auto [wl, seed] = GetParam();
    Config cfg = recoveryConfig();
    cfg.set("wl.seed", seed);
    checkRecovery(cfg, wl, 0);
}

TEST_P(RecoveryAcrossWorkloads, MidRunCrashRecovers)
{
    auto [wl, seed] = GetParam();
    Config cfg = recoveryConfig();
    cfg.set("wl.seed", seed);
    checkRecovery(cfg, wl, 400000 + seed * 137000);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecoveryAcrossWorkloads,
    ::testing::Values(RecoveryParam{"btree", 1},
                      RecoveryParam{"btree", 2},
                      RecoveryParam{"hashtable", 1},
                      RecoveryParam{"rbtree", 3},
                      RecoveryParam{"kmeans", 1},
                      RecoveryParam{"ssca2", 2},
                      RecoveryParam{"vacation", 1}));

class RecoveryEpochSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RecoveryEpochSweep, EpochLengthDoesNotBreakRecovery)
{
    Config cfg = recoveryConfig();
    cfg.set("epoch.stores_global", GetParam());
    checkRecovery(cfg, "btree", 900000);
}

INSTANTIATE_TEST_SUITE_P(EpochSizes, RecoveryEpochSweep,
                         ::testing::Values(1000u, 8000u, 64000u,
                                           1u << 20));

class RecoveryVdSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RecoveryVdSweep, VdWidthDoesNotBreakRecovery)
{
    Config cfg = recoveryConfig();
    cfg.set("sys.cores_per_vd", std::uint64_t(GetParam()));
    checkRecovery(cfg, "hashtable", 700000);
}

INSTANTIATE_TEST_SUITE_P(VdWidths, RecoveryVdSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(Recovery, WithOmcBuffer)
{
    Config cfg = recoveryConfig();
    cfg.set("mnm.use_buffer", "true");
    cfg.set("mnm.buffer_mb", std::uint64_t(1));
    checkRecovery(cfg, "btree", 800000);
}

TEST(Recovery, WithDroppedMergedTables)
{
    Config cfg = recoveryConfig();
    cfg.set("mnm.drop_merged_tables", "true");
    checkRecovery(cfg, "btree", 0);
}

TEST(Recovery, ImageMatchesMasterExactly)
{
    setQuiet(true);
    Config cfg = recoveryConfig();
    System sys(cfg, "nvoverlay", "vacation");
    sys.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    RecoveryManager rm(scheme.backend());
    auto result = rm.recover();
    std::uint64_t mapped =
        scheme.backend().masterMappedLinesTotal();
    EXPECT_EQ(result.linesRestored, mapped);
    EXPECT_GT(result.modelCycles, 0u);
}

TEST(TimeTravel, SnapshotReaderMatchesHistory)
{
    setQuiet(true);
    Config cfg = recoveryConfig();
    cfg.set("epoch.stores_global", std::uint64_t(8000));
    System sys(cfg, "nvoverlay", "btree");
    sys.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    SnapshotReader reader(scheme.backend());
    WriteTracker *tracker = sys.tracker();
    EpochWide rec = scheme.backend().recEpoch();
    ASSERT_GT(rec, 2u);

    // Every line, at every epoch up to rec-epoch: the fall-through
    // read equals the last store at or before that epoch.
    unsigned checked = 0, mismatches = 0;
    for (Addr line : tracker->trackedLines()) {
        for (EpochWide e = 1; e <= rec; e += 3) {
            auto expect = tracker->expectedDigest(line, e);
            auto got = reader.readLine(line, e);
            if (!expect) {
                EXPECT_FALSE(got.has_value())
                    << "no store yet at epoch " << e;
                continue;
            }
            ASSERT_TRUE(got.has_value());
            ++checked;
            if (got->data.digest() != *expect)
                ++mismatches;
        }
        if (checked > 4000)
            break;
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(checked, 100u);
}

TEST(TimeTravel, TypedReadSpansLines)
{
    setQuiet(true);
    Config cfg = recoveryConfig();
    System sys(cfg, "nvoverlay", "btree");
    sys.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    SnapshotReader reader(scheme.backend());
    EpochWide rec = scheme.backend().recEpoch();

    Addr probe = invalidAddr;
    scheme.backend().forEachMasterEntry(
        [&](Addr line, const MasterTable::Entry &) {
            if (probe == invalidAddr)
                probe = line;
        });
    ASSERT_NE(probe, invalidAddr);
    auto v = reader.readValue<std::uint64_t>(probe, rec);
    ASSERT_TRUE(v.has_value());
}

} // namespace
} // namespace nvo
