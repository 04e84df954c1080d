/**
 * @file
 * Post-crash rebuild of volatile OMC structures from the persistent,
 * self-describing sub-page headers (paper Sec. V-E: "Volatile OMC
 * data structures are also rebuilt during the recovery"), plus the
 * super-block OID tracking option (Sec. V-F).
 */

#include <gtest/gtest.h>

#include <map>

#include "common/log.hh"
#include "fault/crash_sim.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "mem/nvm_model.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "nvoverlay/omc.hh"
#include "nvoverlay/recovery.hh"
#include "nvoverlay/snapshot_reader.hh"

namespace nvo
{
namespace
{

LineData
lineOf(std::uint8_t fill)
{
    LineData d;
    d.bytes.fill(fill);
    return d;
}

TEST(Rebuild, TablesRecoverFromHeaders)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 2;
    params.numVds = 2;
    MnmBackend backend(params, nvm, stats);

    SeqNo seq = 0;
    std::map<std::pair<Addr, EpochWide>, LineData> truth;
    Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        Addr a = lineAlign(rng.below(1 << 20));
        EpochWide e = 1 + rng.below(4);
        LineData d = lineOf(static_cast<std::uint8_t>(rng.below(250)));
        backend.insertVersion(a, e, ++seq, d, 0);
        truth[{a, e}] = d;
    }
    backend.reportMinVer(0, 5, 0);
    backend.reportMinVer(1, 5, 0);

    // Crash: volatile tables lost and rebuilt from the headers;
    // persistent pool + master survive.
    backend.crashReset();
    LineData out;
    // Master reads still work (it is persistent).
    EXPECT_TRUE(backend.readMaster(truth.begin()->first.first, out));
    // Every version is addressable again per epoch.
    unsigned mismatches = 0;
    for (const auto &kv : truth) {
        EpochWide found;
        ASSERT_TRUE(backend.readSnapshot(kv.first.first,
                                         kv.first.second, out,
                                         &found));
        if (found == kv.first.second && !(out == kv.second))
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(Rebuild, TimeTravelWorksAfterCrash)
{
    setQuiet(true);
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(400));
    cfg.set("epoch.stores_global", std::uint64_t(8000));
    cfg.set("wl.btree.prefill", std::uint64_t(2048));
    cfg.set("sim.track_writes", "true");

    System sys(cfg, "nvoverlay", "btree");
    sys.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    auto &backend = scheme.backend();
    EpochWide rec = backend.recEpoch();
    ASSERT_GT(rec, 2u);

    backend.crashReset();

    SnapshotReader reader(backend);
    unsigned checked = 0, mismatches = 0;
    for (Addr line : sys.tracker()->trackedLines()) {
        for (EpochWide e = 1; e <= rec; e += 2) {
            auto expect = sys.tracker()->expectedDigest(line, e);
            if (!expect)
                continue;
            auto got = reader.readLine(line, e);
            ASSERT_TRUE(got.has_value());
            ++checked;
            if (got->data.digest() != *expect)
                ++mismatches;
        }
        if (checked > 2000)
            break;
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(checked, 50u);
}

TEST(Rebuild, IntermediateRecEpochWithUnmergedLaterTables)
{
    // Crash-rebuild at an intermediate rec-epoch: epochs 1..4 are
    // merged into the master, while epochs 6..8 still sit unmerged in
    // their per-epoch tables. Recovery must return exactly the
    // rec-epoch-4 image — later unmerged versions may not leak in —
    // and the rebuilt tables must still time-travel into them.
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 2;
    params.numVds = 2;
    MnmBackend backend(params, nvm, stats);

    SeqNo seq = 0;
    std::map<Addr, std::map<EpochWide, LineData>> truth;
    Rng rng(23);
    auto put = [&](Addr a, EpochWide e) {
        LineData d = lineOf(static_cast<std::uint8_t>(rng.below(250)));
        backend.insertVersion(a, e, ++seq, d, 0);
        truth[a][e] = d;
    };
    std::vector<Addr> addrs;
    for (int i = 0; i < 200; ++i)
        addrs.push_back(lineAlign(rng.below(1 << 20)));
    for (Addr a : addrs)
        for (EpochWide e = 1; e <= 4; ++e)
            if (rng.chance(0.6))
                put(a, e);
    backend.reportMinVer(0, 5, 0);
    backend.reportMinVer(1, 5, 0);
    ASSERT_EQ(backend.recEpoch(), 4u);
    for (Addr a : addrs)
        for (EpochWide e = 6; e <= 8; ++e)
            if (rng.chance(0.5))
                put(a, e);

    backend.crashReset();

    RecoveryManager rm(backend);
    auto result = rm.recover();
    EXPECT_EQ(result.recEpoch, 4u);
    EXPECT_EQ(RecoveryManager::validate(result, backend), "");

    unsigned checked = 0, mismatches = 0;
    for (const auto &kv : truth) {
        const LineData *want = nullptr;
        for (const auto &ve : kv.second)
            if (ve.first <= 4)
                want = &ve.second;
        if (!want)
            continue;
        LineData got;
        result.image->readLine(kv.first, got);
        ++checked;
        if (!(got == *want))
            ++mismatches;
        // The image holds content only: no restored line is tagged.
        EXPECT_EQ(result.image->lineOid(kv.first), 0u);
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(checked, 50u);

    // The unmerged epochs survived the rebuild as tables too.
    SnapshotReader reader(backend);
    for (const auto &kv : truth) {
        for (const auto &ve : kv.second) {
            auto got = reader.readLine(kv.first, ve.first);
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(got->data.digest(), ve.second.digest());
        }
    }
}

TEST(Rebuild, RecoveryAfterCompactionKeepsSurvivingEpochs)
{
    // Compaction rewrites still-live versions into the newest merged
    // epoch and reclaims stale sub-pages. A crash right after must
    // rebuild to exactly the post-compaction state: every surviving
    // (line, epoch) snapshot reads back unchanged.
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 2;
    params.numVds = 2;
    MnmBackend backend(params, nvm, stats);

    SeqNo seq = 0;
    Rng rng(31);
    std::vector<Addr> addrs;
    for (int i = 0; i < 150; ++i)
        addrs.push_back(lineAlign(rng.below(1 << 18)));
    for (EpochWide e = 1; e <= 6; ++e)
        for (Addr a : addrs)
            if (rng.chance(0.7))
                backend.insertVersion(
                    a, e, ++seq,
                    lineOf(static_cast<std::uint8_t>(rng.below(250))),
                    0);
    backend.reportMinVer(0, 7, 0);
    backend.reportMinVer(1, 7, 0);
    ASSERT_EQ(backend.recEpoch(), 6u);

    backend.compact(0);

    // Post-compaction ground truth: the full time-travel surface.
    struct Snap
    {
        bool ok;
        EpochWide found;
        std::uint64_t digest;
    };
    std::map<std::pair<Addr, EpochWide>, Snap> before;
    LineData out;
    for (Addr a : addrs) {
        for (EpochWide e = 1; e <= 6; ++e) {
            EpochWide found = 0;
            bool ok = backend.readSnapshot(a, e, out, &found);
            before[{a, e}] = Snap{ok, found,
                                  ok ? out.digest() : 0};
        }
    }

    backend.crashReset();

    RecoveryManager rm(backend);
    auto result = rm.recover();
    EXPECT_EQ(result.recEpoch, 6u);
    EXPECT_EQ(RecoveryManager::validate(result, backend), "");

    unsigned mismatches = 0;
    for (const auto &kv : before) {
        EpochWide found = 0;
        bool ok =
            backend.readSnapshot(kv.first.first, kv.first.second, out,
                                 &found);
        if (ok != kv.second.ok ||
            (ok && (found != kv.second.found ||
                    out.digest() != kv.second.digest)))
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u)
        << "rebuild after compaction changed the snapshot surface";
}

TEST(OidGranularity, SuperBlockTagIsMaxOfLines)
{
    BackingStore bs;
    bs.setOidGranularity(4);
    bs.setLineMeta(0x1000, 5, 1);
    bs.setLineMeta(0x1040, 3, 2);   // same super block, older epoch
    EXPECT_EQ(bs.lineOid(0x1000), 5u);
    EXPECT_EQ(bs.lineOid(0x1040), 5u) << "shared tag = block max";
    EXPECT_EQ(bs.lineOid(0x1100), 0u) << "next super block untouched";
    bs.setLineMeta(0x1080, 9, 3);
    EXPECT_EQ(bs.lineOid(0x1000), 9u);
    // Per-line seqnos stay exact regardless of granularity.
    EXPECT_EQ(bs.lineSeq(0x1040), 2u);
}

TEST(OidGranularity, RecoveryTheoremHoldsAtCoarseGranularity)
{
    setQuiet(true);
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(300));
    cfg.set("epoch.stores_global", std::uint64_t(6000));
    cfg.set("wl.hashtable.prefill", std::uint64_t(1024));
    cfg.set("sim.track_writes", "true");
    cfg.set("sim.oid_granularity", std::uint64_t(16));

    System sys(cfg, "nvoverlay", "hashtable");
    sys.runUntil(800000);
    ASSERT_TRUE(sys.tracker()->epochsMonotonic())
        << "coarser tags only inflate observed epochs";

    const fault::CrashReport rep = fault::crashAndRecover(sys);
    EXPECT_EQ(rep.error, "");
    EXPECT_EQ(rep.mismatches, 0u);
    EXPECT_GT(rep.linesChecked, 0u);
}

} // namespace
} // namespace nvo
