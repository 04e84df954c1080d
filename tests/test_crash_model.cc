/**
 * @file
 * The one crash model loses nothing durable on an unarmed run.
 *
 * MnmBackend::crashReset is the only simulated power failure. With
 * the persist domain disarmed (the default) nothing is staged, so the
 * crash truncates nothing; buffered OMC pendings carry only device
 * write timing, their content already sits in the pool image. What
 * changes is where the per-epoch tables come from: the DRAM tables
 * die and are rebuilt from the persistent sub-page headers (paper
 * Sec. V-E). Recovery and time travel must read the same state
 * before and after, at any cut between quanta.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "mem/persist_domain.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "nvoverlay/recovery.hh"
#include "nvoverlay/snapshot_reader.hh"

namespace nvo
{
namespace
{

/** What recovery and time travel read from a backend. */
struct View
{
    EpochWide recEpoch = 0;
    std::uint64_t linesRestored = 0;
    /** Recovered digest of each tracked line. */
    std::vector<std::uint64_t> image;
    /** (epoch E' that mapped it, digest) per (line, epoch) read;
     *  E' = 0 when no version is visible. */
    std::vector<std::pair<EpochWide, std::uint64_t>> snapshots;
};

View
readView(const MnmBackend &backend, const std::vector<Addr> &lines,
         EpochWide last_epoch)
{
    View view;
    RecoveryManager rm(backend);
    auto result = rm.recover();
    view.recEpoch = result.recEpoch;
    view.linesRestored = result.linesRestored;
    SnapshotReader reader(backend);
    for (Addr line : lines) {
        LineData got;
        result.image->readLine(line, got);
        view.image.push_back(got.digest());
        for (EpochWide e = 1; e <= last_epoch; ++e) {
            auto snap = reader.readLine(line, e);
            view.snapshots.emplace_back(snap ? snap->epoch : 0,
                                        snap ? snap->data.digest() : 0);
        }
    }
    return view;
}

TEST(CrashModel, UnarmedCrashResetKeepsRecoveryAndSnapshots)
{
    setQuiet(true);
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
    cfg.set("mnm.use_buffer", "true");
    cfg.set("mnm.buffer_mb", std::uint64_t(1));
    cfg.set("sim.track_writes", "true");

    for (const char *workload : {"btree", "hashtable"}) {
        for (Cycle cut : {250000ull, 350000ull, 450000ull}) {
            SCOPED_TRACE(std::string(workload) + " cut at " +
                         std::to_string(cut));
            System sys(cfg, "nvoverlay", workload);
            ASSERT_FALSE(sys.runUntil(cut)) << "the cut lands mid-run";
            ASSERT_FALSE(sys.nvm().persist().armed());
            ASSERT_GT(sys.stats().omcBufferMisses, 0u)
                << "versions went through the OMC buffer";
            auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
            MnmBackend &backend = scheme.backend();

            std::vector<Addr> lines = sys.tracker()->trackedLines();
            std::sort(lines.begin(), lines.end());
            const EpochWide last_epoch = scheme.globalEpoch();

            const View before = readView(backend, lines, last_epoch);
            backend.crashReset();
            const View after = readView(backend, lines, last_epoch);

            EXPECT_GT(before.recEpoch, 0u) << "the cut recovers data";
            EXPECT_EQ(after.recEpoch, before.recEpoch);
            EXPECT_EQ(after.linesRestored, before.linesRestored);
            ASSERT_EQ(after.image.size(), before.image.size());
            ASSERT_EQ(after.snapshots.size(), before.snapshots.size());
            std::size_t image_diffs = 0, snapshot_diffs = 0;
            for (std::size_t i = 0; i < before.image.size(); ++i)
                image_diffs += after.image[i] != before.image[i];
            for (std::size_t i = 0; i < before.snapshots.size(); ++i)
                snapshot_diffs +=
                    after.snapshots[i] != before.snapshots[i];
            EXPECT_EQ(image_diffs, 0u);
            EXPECT_EQ(snapshot_diffs, 0u)
                << "of " << before.snapshots.size() << " reads";
            EXPECT_GT(before.snapshots.size(), 1000u);
        }
    }
}

} // namespace
} // namespace nvo
