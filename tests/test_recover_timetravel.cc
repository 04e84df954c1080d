/**
 * @file
 * Time travel after crash recovery. The paper's Sec. V-E debugger
 * workflow is: crash, rebuild the current image with the
 * RecoveryManager, then step *backwards* through history with the
 * SnapshotReader. That only works if the rebuild is a pure reader —
 * it must not consume or merge the per-epoch tables it walks. These
 * tests run the full sequence and check both views stay correct and
 * mutually consistent, also under compaction, which reclaims history
 * but must never make an old epoch read a wrong version.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
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
timeTravelConfig()
{
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(400));
    cfg.set("wl.btree.prefill", std::uint64_t(2048));
    cfg.set("wl.hashtable.prefill", std::uint64_t(2048));
    cfg.set("epoch.stores_global", std::uint64_t(8000));
    cfg.set("sim.track_writes", "true");
    return cfg;
}

/** timeTravelConfig() under storage pressure: 1 MB per OMC, and one
 *  compaction pass per rec-epoch advance while 10% or more of the
 *  pool is in use. */
Config
compactionConfig()
{
    Config cfg = timeTravelConfig();
    cfg.set("mnm.pool_mb_per_omc", std::uint64_t(1));
    cfg.set("mnm.compaction_threshold", 0.1);
    return cfg;
}

/**
 * Crash at @p crash_at (0 = clean shutdown), recover, then time
 * travel: every historical epoch read through the SnapshotReader
 * must still match the write tracker after the rebuild. Under
 * compaction, reads of reclaimed history may come back empty, and
 * some must; a value read is still the tracker's.
 */
void
checkTimeTravelAfterRecovery(Config cfg, const std::string &workload,
                             Cycle crash_at)
{
    const bool compacted =
        cfg.getF64("mnm.compaction_threshold", 1.0) < 1.0;
    setQuiet(true);
    System sys(cfg, "nvoverlay", workload);
    if (crash_at == 0)
        sys.run();
    else
        sys.runUntil(crash_at);
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    scheme.backend().crashReset();

    WriteTracker *tracker = sys.tracker();
    ASSERT_NE(tracker, nullptr);

    // Rebuild the current image first...
    RecoveryManager rm(scheme.backend());
    auto result = rm.recover();
    ASSERT_EQ(RecoveryManager::validate(result, scheme.backend()), "");
    EpochWide rec = result.recEpoch;
    ASSERT_GT(rec, 1u) << "need history to travel through";

    // ...then read history through the SnapshotReader.
    SnapshotReader reader(scheme.backend());
    unsigned checked = 0, mismatches = 0, empty = 0;
    for (Addr line : tracker->trackedLines()) {
        for (EpochWide e = 1; e <= rec; e += 2) {
            auto expect = tracker->expectedDigest(line, e);
            auto got = reader.readLine(line, e);
            if (!expect) {
                EXPECT_FALSE(got.has_value())
                    << "line " << std::hex << line << std::dec
                    << " had no store at epoch " << e;
                continue;
            }
            if (!got) {
                ASSERT_TRUE(compacted)
                    << "line " << std::hex << line << std::dec
                    << " lost at epoch " << e << " after rebuild";
                ++empty;
                continue;
            }
            EXPECT_LE(got->epoch, e);
            ++checked;
            if (got->data.digest() != *expect)
                ++mismatches;
        }
        if (checked > 6000)
            break;
    }
    EXPECT_EQ(mismatches, 0u)
        << workload << " crash@" << crash_at << " rec=" << rec;
    EXPECT_GT(checked, 100u);
    if (compacted) {
        EXPECT_GT(empty, 0u) << "compaction reclaimed no history";
        EXPECT_GT(sys.stats().gcBytesCopied, 0u)
            << "compaction copied no live version forward";
    }

    // The two views agree at rec-epoch: the rebuilt image and the
    // snapshot at rec must read identically for every tracked line
    // the tracker has history for.
    unsigned agree_checked = 0;
    for (Addr line : tracker->trackedLines()) {
        auto expect = tracker->expectedDigest(line, rec);
        if (!expect)
            continue;
        auto snap = reader.readLine(line, rec);
        ASSERT_TRUE(snap.has_value());
        LineData img;
        result.image->readLine(line, img);
        EXPECT_EQ(snap->data.digest(), img.digest())
            << "image and snapshot diverge at rec-epoch";
        if (++agree_checked > 2000)
            break;
    }
    EXPECT_GT(agree_checked, 0u);
}

TEST(TimeTravelAfterRecovery, CleanShutdownBtree)
{
    checkTimeTravelAfterRecovery(timeTravelConfig(), "btree", 0);
}

TEST(TimeTravelAfterRecovery, MidRunCrashBtree)
{
    checkTimeTravelAfterRecovery(timeTravelConfig(), "btree", 900000);
}

TEST(TimeTravelAfterRecovery, MidRunCrashHashtable)
{
    checkTimeTravelAfterRecovery(timeTravelConfig(), "hashtable",
                                 700000);
}

TEST(TimeTravelAfterRecovery, CompactionReturnsTrueHistoryOrNothing)
{
    checkTimeTravelAfterRecovery(compactionConfig(), "btree", 0);
}

TEST(TimeTravelAfterRecovery, RecoverTwiceIsIdempotent)
{
    setQuiet(true);
    Config cfg = timeTravelConfig();
    System sys(cfg, "nvoverlay", "btree");
    sys.runUntil(800000);
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    scheme.backend().crashReset();

    RecoveryManager rm1(scheme.backend());
    auto first = rm1.recover();
    RecoveryManager rm2(scheme.backend());
    auto second = rm2.recover();
    EXPECT_EQ(first.recEpoch, second.recEpoch);
    EXPECT_EQ(first.linesRestored, second.linesRestored);

    unsigned compared = 0;
    WriteTracker *tracker = sys.tracker();
    ASSERT_NE(tracker, nullptr);
    for (Addr line : tracker->trackedLines()) {
        LineData a, b;
        first.image->readLine(line, a);
        second.image->readLine(line, b);
        EXPECT_EQ(a.digest(), b.digest());
        if (++compared > 2000)
            break;
    }
    EXPECT_GT(compared, 0u);
}

} // namespace
} // namespace nvo
