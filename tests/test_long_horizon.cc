/**
 * @file
 * Long-horizon integration tests: epoch counts crossing the 16-bit
 * group boundary under live traffic (Sec. IV-D wrap-around scheme),
 * version compaction triggered by real pool pressure or by the policy
 * engine's governor, and recovery correctness in each regime; plus the host-cost contract of a
 * high-frequency run: per-epoch table accounting stays exact, and
 * host time grows with the epochs run, not with retained history;
 * and an armed persist journal costs a run little host time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "common/audit.hh"
#include "common/log.hh"
#include "fault/crash_sim.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "nvoverlay/epoch.hh"
#include "nvoverlay/nvoverlay_scheme.hh"

namespace nvo
{
namespace
{

Config
horizonConfig()
{
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.hashtable.prefill", std::uint64_t(512));
    cfg.set("wl.vacation.rows", std::uint64_t(4096));
    cfg.set("sim.track_writes", "true");
    return cfg;
}

void
checkTheorem(System &sys)
{
    const fault::CrashReport rep = fault::crashAndRecover(sys);
    EXPECT_EQ(rep.error, "");
    EXPECT_EQ(rep.mismatches, 0u);
    EXPECT_GT(rep.linesChecked, 0u);
}

/** One VD epoch per store on hashtable: ~11 k epochs at wl.ops=250. */
Config
hifreqConfig(std::uint64_t ops)
{
    Config cfg = horizonConfig();
    cfg.set("nvo.stores_per_epoch_vd", std::uint64_t(1));
    cfg.set("wl.ops", ops);
    return cfg;
}

/** Sum of tableBytes() over every retained per-epoch table: the scan
 *  the backend's running footprint stands in for. */
std::uint64_t
scannedTableBytes(NVOverlayScheme &scheme)
{
    MnmBackend &backend = scheme.backend();
    std::uint64_t total = 0;
    for (unsigned o = 0; o < backend.numOmcs(); ++o)
        for (EpochWide e = 0; e <= scheme.globalEpoch(); ++e)
            if (const EpochTable *t = backend.epochTable(o, e))
                total += t->tableBytes();
    return total;
}

TEST(LongHorizon, RunningTableFootprintMatchesRescan)
{
    setQuiet(true);
    const std::vector<
        std::pair<std::string,
                  std::vector<std::pair<std::string, std::string>>>>
        regimes = {
            {"retain", {}},
            {"drop_merged", {{"mnm.drop_merged_tables", "true"}}},
            {"compaction",
             {{"sys.llc_slices", "1"},
              {"mnm.pool_mb_per_omc", "1"},
              {"mnm.compaction_threshold", "0.7"},
              {"mnm.auto_reclaim", "true"}}},
        };
    for (const auto &[name, knobs] : regimes) {
        SCOPED_TRACE(name);
        Config cfg = hifreqConfig(250);
        for (const auto &[key, value] : knobs)
            cfg.set(key, value);
        System sys(cfg, "nvoverlay", "hashtable");
        auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
        MnmBackend &backend = scheme.backend();
        // Check mid-run, while tables are created, merged, dropped
        // and compacted, not only at the end (the run is ~420 k
        // cycles).
        unsigned checkpoints = 0;
        for (Cycle limit = 50000; !sys.runUntil(limit); limit += 50000) {
            const std::uint64_t scanned = scannedTableBytes(scheme);
            EXPECT_GT(scanned, 0u);
            EXPECT_EQ(backend.epochTableBytesTotal(), scanned);
            ++checkpoints;
        }
        EXPECT_GE(checkpoints, 5u);
        sys.run();
        EXPECT_EQ(backend.epochTableBytesTotal(),
                  scannedTableBytes(scheme));
        EXPECT_EQ(sys.stats().epochTableBytes,
                  scannedTableBytes(scheme));
        if (name == "compaction") {
            EXPECT_GT(sys.stats().gcCompactions, 0u);
        }

        if (name != "retain")
            continue;
        // Power failure: the volatile tables die and are re-adopted
        // from the persistent sub-page headers.
        backend.crashReset();
        const std::uint64_t rebuilt = scannedTableBytes(scheme);
        EXPECT_GT(rebuilt, 0u);
        EXPECT_EQ(backend.epochTableBytesTotal(), rebuilt);
        backend.updateStats();
        EXPECT_EQ(sys.stats().epochTableBytes, rebuilt);
    }
}

/** Best-of-@p reps process CPU seconds to build and run @p cfg;
 *  reports the epochs the run completed through @p epochs. */
double
bestCpuSeconds(const Config &cfg, int reps, std::uint64_t &epochs)
{
    double best = 0;
    for (int r = 0; r < reps; ++r) {
        const std::clock_t start = std::clock();
        System sys(cfg, "nvoverlay", "hashtable");
        sys.run();
        const double cpu =
            static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC;
        best = r == 0 ? cpu : std::min(best, cpu);
        epochs = sys.scheme().epochsCompleted();
    }
    return best;
}

TEST(LongHorizon, HostCostGrowsWithEpochsNotHistory)
{
    // Full audit sweeps walk every retained table by design.
    if (audit::enabled)
        GTEST_SKIP() << "audit sweeps scale with retained history";
    setQuiet(true);
    // Process CPU time, best of three, is robust to co-scheduled load;
    // the assertion is a ratio, so it is robust to host speed.
    std::uint64_t small_epochs = 0, big_epochs = 0;
    const double small = bestCpuSeconds(hifreqConfig(250), 3,
                                        small_epochs);
    const double big = bestCpuSeconds(hifreqConfig(1000), 3, big_epochs);
    ASSERT_GE(big_epochs, 3.5 * static_cast<double>(small_epochs))
        << "the larger run must complete ~4x the epochs";
    EXPECT_LE(big, 8.0 * small)
        << small_epochs << " epochs took " << small << " s of CPU, "
        << big_epochs << " epochs took " << big << " s";
}

/** The perfbench `hashtable_hifreq` config at wl.ops=500: Table II
 *  (16 cores, 8 VDs) with a VD epoch every 8 stores, ~7 k epochs;
 *  @p l2_kb sets the per-VD L2. */
Config
tableTwoHifreqConfig(std::uint64_t l2_kb)
{
    Config cfg = defaultConfig();
    cfg.set("nvo.stores_per_epoch_vd", std::uint64_t(8));
    cfg.set("wl.ops", std::uint64_t(500));
    cfg.set("l2.kb", l2_kb);
    return cfg;
}

/** Process CPU seconds of one run() alone (construction allocates
 *  every cache slot, so it scales with capacity by design); reports
 *  the epochs the run completed through @p epochs. */
double
runCpuSeconds(const Config &cfg, const char *scheme,
              const char *workload, std::uint64_t &epochs)
{
    System sys(cfg, scheme, workload);
    const std::clock_t start = std::clock();
    sys.run();
    epochs = sys.scheme().epochsCompleted();
    return static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC;
}

/** Best-of-@p reps runCpuSeconds() of hashtable under @p scheme. */
double
bestRunCpuSeconds(const Config &cfg, int reps, std::uint64_t &epochs,
                  const char *scheme = "nvoverlay")
{
    double best = 0;
    for (int r = 0; r < reps; ++r) {
        const double cpu =
            runCpuSeconds(cfg, scheme, "hashtable", epochs);
        best = r == 0 ? cpu : std::min(best, cpu);
    }
    return best;
}

TEST(LongHorizon, WalkCostIndependentOfL2Capacity)
{
    // Full audit sweeps scan every cache slot by design.
    if (audit::enabled)
        GTEST_SKIP() << "audit sweeps scale with cache capacity";
    setQuiet(true);
    // A tag walk runs after every epoch advance. Its host cost must
    // follow the lines the epoch wrote, not the L2's slot count, so
    // a 16x larger L2 must leave the run's CPU time nearly flat.
    std::uint64_t small_epochs = 0, big_epochs = 0;
    const double small =
        bestRunCpuSeconds(tableTwoHifreqConfig(256), 3, small_epochs);
    const double big =
        bestRunCpuSeconds(tableTwoHifreqConfig(4096), 3, big_epochs);
    ASSERT_NEAR(static_cast<double>(big_epochs),
                static_cast<double>(small_epochs), 0.05 * small_epochs)
        << "both runs must do about the same epoch work";
    EXPECT_LE(big, 1.5 * small)
        << "run() took " << small << " s of CPU with a 256 KB L2 and "
        << big << " s with a 4096 KB L2";
}

/** PiCL on hashtable with a global epoch every 1000 stores; @p
 *  tag_bytes sets its tag array (default 32 MB). The table has 1024
 *  buckets: with the default 262,144 the run touches so many tag sets
 *  that the 32 MB array ran 1.16x slower than the 4 MB one even with
 *  the walker off, a host memory cost that is not the walk's. */
Config
piclHifreqConfig(std::uint64_t tag_bytes)
{
    Config cfg = defaultConfig();
    cfg.set("wl.ops", std::uint64_t(1000));
    cfg.set("wl.hashtable.buckets", std::uint64_t(1024));
    cfg.set("wl.hashtable.prefill", std::uint64_t(1024));
    cfg.set("epoch.stores_global", std::uint64_t(1000));
    cfg.set("picl.tag_bytes", tag_bytes);
    return cfg;
}

TEST(LongHorizon, PiclWalkCostIndependentOfTagCapacity)
{
    // Full audit sweeps scan every tag slot by design.
    if (audit::enabled)
        GTEST_SKIP() << "audit sweeps scale with tag capacity";
    setQuiet(true);
    // PiCL's tag walk runs at every global epoch. Its host cost must
    // follow the lines the epoch dirtied, not the tag array's slot
    // count, so 8x the tags must leave the run's CPU time nearly flat.
    std::uint64_t small_epochs = 0, big_epochs = 0;
    const double small = bestRunCpuSeconds(
        piclHifreqConfig(4ull << 20), 3, small_epochs, "picl");
    const double big = bestRunCpuSeconds(
        piclHifreqConfig(32ull << 20), 3, big_epochs, "picl");
    ASSERT_EQ(big_epochs, small_epochs)
        << "both runs must do the same epoch work";
    ASSERT_GT(small_epochs, 50u) << "the walk must run often";
    EXPECT_LE(big, 1.5 * small)
        << small_epochs << " epochs: run() took " << small
        << " s of CPU with 4 MB of tags and " << big << " s with 32 MB";
}

/** Table II btree at wl.ops=1000, with the persist domain armed or
 *  not: 0.35-0.5 s of run() CPU time on a 4-vCPU VM. */
Config
tableTwoBtreeConfig(bool armed)
{
    Config cfg = defaultConfig();
    cfg.set("wl.ops", std::uint64_t(1000));
    cfg.set("persist.armed", armed ? "true" : "false");
    return cfg;
}

TEST(LongHorizon, ArmedJournalCostsLittleHostTime)
{
    // Full audit sweeps walk the journaled structures by design.
    if (audit::enabled)
        GTEST_SKIP() << "audit sweeps scale with the durable state";
    setQuiet(true);
    // An armed persist domain stages one by-value undo record per
    // durable mutation and drops them at each fence; that journal
    // must cost the run little next to the protocol it records.
    // Five pairs run back to back, in alternating order, and the
    // median of their armed/unarmed ratios is judged, so a shift in
    // host speed (other tests sharing the machine) reaches both sides
    // of a pair. On a 4-vCPU VM under ctest -j4 the best of three runs
    // per side read 0.78-1.28 for this code, the paired median
    // 1.02-1.17.
    const auto run = [](bool armed, std::uint64_t &epochs) {
        return runCpuSeconds(tableTwoBtreeConfig(armed), "nvoverlay",
                             "btree", epochs);
    };
    std::vector<double> ratios;
    for (int r = 0; r < 5; ++r) {
        std::uint64_t unarmed_epochs = 0, armed_epochs = 0;
        double unarmed = 0, armed = 0;
        if (r % 2 == 0) {
            unarmed = run(false, unarmed_epochs);
            armed = run(true, armed_epochs);
        } else {
            armed = run(true, armed_epochs);
            unarmed = run(false, unarmed_epochs);
        }
        ASSERT_EQ(armed_epochs, unarmed_epochs)
            << "arming the journal must not change the simulation";
        ratios.push_back(armed / unarmed);
    }
    std::sort(ratios.begin(), ratios.end());
    EXPECT_LE(ratios[2], 1.3)
        << "armed/unarmed run() CPU ratios, sorted: " << ratios[0]
        << " " << ratios[1] << " " << ratios[2] << " " << ratios[3]
        << " " << ratios[4];
}

TEST(LongHorizon, EpochsCrossTheGroupBoundary)
{
    setQuiet(true);
    Config cfg = horizonConfig();
    // One epoch per store per VD: epochs race far past the 16-bit
    // half-space boundary within a modest run.
    cfg.set("nvo.stores_per_epoch_vd", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(4200));

    System sys(cfg, "nvoverlay", "hashtable");
    sys.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());

    EXPECT_GT(scheme.globalEpoch(), epoch::halfSpace)
        << "the run must actually cross the group boundary";
    EXPECT_GE(scheme.senseTracker().flips(), 1u)
        << "the epoch-sense bit flipped on the crossing";
    EXPECT_TRUE(scheme.senseTracker().skewWithinBound())
        << "inter-VD skew stayed below half the space";
    EXPECT_TRUE(sys.tracker()->epochsMonotonic());
    EXPECT_EQ(sys.hierarchy().checkInvariants(), "");
    checkTheorem(sys);
}

TEST(LongHorizon, NarrowTagsStayDecodableAcrossTheRun)
{
    setQuiet(true);
    Config cfg = horizonConfig();
    cfg.set("nvo.stores_per_epoch_vd", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(3000));

    System sys(cfg, "nvoverlay", "vacation");
    sys.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());

    // Every VD's wide epoch must round-trip through the 16-bit tag
    // against every other VD's epoch as reference — exactly the
    // decode hardware performs under bounded skew.
    for (unsigned a = 0; a < sys.hierarchy().numVds(); ++a) {
        EpochWide ea = scheme.domain(a).epoch();
        for (unsigned b = 0; b < sys.hierarchy().numVds(); ++b) {
            EpochWide eb = scheme.domain(b).epoch();
            EXPECT_EQ(epoch::widen(epoch::narrow(ea), eb), ea)
                << "VD " << a << " tag undecodable from VD " << b;
        }
    }
}

TEST(LongHorizon, CompactionUnderLivePressure)
{
    setQuiet(true);
    Config cfg = horizonConfig();
    cfg.set("wl.ops", std::uint64_t(2500));
    cfg.set("epoch.stores_global", std::uint64_t(30000));
    cfg.set("sys.llc_slices", std::uint64_t(1));   // one 1 MB pool
    // A small pool with an aggressive quota forces real compactions.
    cfg.set("mnm.pool_mb_per_omc", std::uint64_t(1));
    cfg.set("mnm.compaction_threshold", 0.7);

    System sys(cfg, "nvoverlay", "hashtable");
    sys.run();
    EXPECT_GT(sys.stats().gcCompactions, 0u)
        << "the quota must have triggered version compaction";
    // The consistent image survives compaction.
    checkTheorem(sys);
}

TEST(LongHorizon, GovernedCompactionKeepsRecoveryConsistent)
{
    // The policy engine's compaction governor copies live versions
    // into the newest merged table. When a copy grows one of that
    // table's sub-pages, versions the master already maps move to a
    // new sub-page; their master entries must move with them.
    setQuiet(true);
    Config cfg = horizonConfig();
    cfg.set("wl.ops", std::uint64_t(600));
    cfg.set("epoch.stores_global", std::uint64_t(8000));
    cfg.set("mnm.pool_mb_per_omc", std::uint64_t(1));
    cfg.set("policy.enabled", std::uint64_t(1));
    cfg.set("policy.compact.hi", std::uint64_t(300));
    cfg.set("policy.compact.lo", std::uint64_t(200));

    System sys(cfg, "nvoverlay", "hashtable");
    sys.run();
    EXPECT_GT(sys.stats().extra.at("policy_compactions"), 0u);
    checkTheorem(sys);
}

TEST(LongHorizon, AutoReclaimKeepsPoolBounded)
{
    setQuiet(true);
    Config cfg = horizonConfig();
    cfg.set("wl.ops", std::uint64_t(800));
    cfg.set("epoch.stores_global", std::uint64_t(20000));
    // Note: dropping merged tables would also drop the GC refcounts,
    // so eager reclamation keeps the tables and frees sub-pages.
    cfg.set("mnm.auto_reclaim", "true");

    System keep(cfg, "nvoverlay", "vacation");
    keep.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(keep.scheme());
    std::uint64_t reclaimed_bytes = 0;
    for (unsigned o = 0; o < scheme.backend().numOmcs(); ++o)
        reclaimed_bytes += scheme.backend().pool(o).bytesAllocated();

    Config retain = cfg;
    retain.set("mnm.auto_reclaim", "false");
    System full(retain, "nvoverlay", "vacation");
    full.run();
    auto &fscheme = dynamic_cast<NVOverlayScheme &>(full.scheme());
    std::uint64_t retained_bytes = 0;
    for (unsigned o = 0; o < fscheme.backend().numOmcs(); ++o)
        retained_bytes += fscheme.backend().pool(o).bytesAllocated();

    EXPECT_LT(reclaimed_bytes, retained_bytes)
        << "reclaiming stale sub-pages must shrink the pool";
    checkTheorem(keep);
}

} // namespace
} // namespace nvo
