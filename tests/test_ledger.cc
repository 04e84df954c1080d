/**
 * @file
 * Version-lifecycle provenance ledger: the per-version state machine
 * in isolation, then the two whole-system invariants it exists to
 * check — completeness (every inserted version terminates; a clean
 * finalize leaves no Inserted entry behind) and attribution (the
 * per-cause byte tallies sum exactly to the Data row of
 * RunStats::nvmWriteBytes, because MnmBackend::deviceWrite is the
 * only data-write path). The seeded `mnm.test_drop_merge` bug proves
 * the leak detector actually detects: a backend that silently skips
 * merges must show up as thousands of leaked versions.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/audit.hh"
#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "obs/json.hh"
#include "obs/ledger.hh"

namespace nvo
{
namespace
{

Config
smallConfig()
{
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(800));
    cfg.set("wl.btree.prefill", std::uint64_t(1024));
    cfg.set("epoch.stores_global", std::uint64_t(8000));
    cfg.set("ledger.enabled", "true");
    return cfg;
}

/** Arm the global ledger directly (unit tests bypass configure()). */
class ArmedLedger
{
  public:
    ArmedLedger()
    {
        obs::ledger().setArmed(true);
        obs::ledger().reset();
    }
    ~ArmedLedger()
    {
        obs::ledger().reset();
        obs::ledger().setArmed(false);
    }
};

TEST(Ledger, LifecycleStateMachine)
{
    if (!obs::ledgerCompiled)
        GTEST_SKIP() << "built with NVO_TRACE=OFF";
    ArmedLedger armed;
    obs::Ledger &led = obs::ledger();

    // seal -> insert -> merge is the common path.
    led.seal(0, 0x1000, 5, 10);
    EXPECT_EQ(led.sealedCount(), 1u);
    led.insertVersion(0, 0x1000, 5, obs::LedgerCause::Capacity, 20);
    EXPECT_EQ(led.insertedCount(), 1u);
    EXPECT_EQ(led.liveInserted(), 1u);
    led.merged(0, 0x1000, 5, false, 30);
    EXPECT_EQ(led.mergedCount(), 1u);
    EXPECT_EQ(led.liveInserted(), 0u);

    // Re-seal of the same version is idempotent (counter is
    // cumulative across versions: 0x1000 then 0x2000).
    led.seal(1, 0x2000, 5, 40);
    led.seal(1, 0x2000, 5, 41);
    EXPECT_EQ(led.sealedCount(), 2u);
    EXPECT_EQ(led.provsAssigned(), 2u);

    // Insert without a prior seal (buffered/late arrivals) works and
    // a repeat insert counts as an overwrite, not a second live
    // version. Sealed-only entries are not "live inserted" — they
    // never reached an OMC.
    led.insertVersion(1, 0x3000, 7, obs::LedgerCause::TagWalk, 50);
    led.insertVersion(1, 0x3000, 7, obs::LedgerCause::TagWalk, 51);
    EXPECT_EQ(led.overwriteCount(), 1u);
    EXPECT_EQ(led.liveInserted(), 1u);

    // Late-merge terminates. Dropping a Merged entry is a genuine
    // exit (a newer version superseded the master mapping).
    led.merged(1, 0x3000, 7, true, 60);
    EXPECT_EQ(led.lateMergedCount(), 1u);
    EXPECT_EQ(led.liveInserted(), 0u);
    led.dropped(1, 0x3000, 7, 61);
    EXPECT_EQ(led.droppedCount(), 1u);
    led.dropped(1, 0x3000, 7, 62);
    EXPECT_EQ(led.droppedCount(), 1u) << "Dropped is terminal";

    // Compacted is terminal too: the move's master-entry unref must
    // not re-terminate the version as Dropped.
    led.insertVersion(0, 0x4000, 8, obs::LedgerCause::EpochFlush, 70);
    led.compacted(0, 0x4000, 8, 9, 80);
    EXPECT_EQ(led.compactedCount(), 1u);
    led.dropped(0, 0x4000, 8, 81);
    EXPECT_EQ(led.droppedCount(), 1u) << "Compacted is terminal";

    led.dataWrite(obs::LedgerCause::Capacity, 64);
    led.dataWrite(obs::LedgerCause::CompactionCopy, 128);
    EXPECT_EQ(led.dataBytes(obs::LedgerCause::Capacity), 64u);
    EXPECT_EQ(led.dataBytesTotal(), 192u);

    led.reset();
    EXPECT_EQ(led.liveInserted(), 0u);
    EXPECT_EQ(led.dataBytesTotal(), 0u);
    EXPECT_TRUE(led.armed()) << "reset keeps the armed flag";
}

TEST(Ledger, DisarmedHooksRecordNothing)
{
    obs::ledger().setArmed(false);
    obs::ledger().reset();
    NVO_LEDGER(seal(0, 0x1000, 3, 5));
    NVO_LEDGER(dataWrite(obs::LedgerCause::Capacity, 64));
    EXPECT_EQ(obs::ledger().sealedCount(), 0u);
    EXPECT_EQ(obs::ledger().dataBytesTotal(), 0u);
}

/** Run a full system and return it with the global ledger still
 *  holding the run's entries (caller must reset). */
void
checkRunInvariants(Config cfg, const std::string &workload)
{
    setQuiet(true);
    System sys(cfg, "nvoverlay", workload);
    sys.run();

    obs::Ledger &led = obs::ledger();
    EXPECT_EQ(led.liveInserted(), 0u)
        << workload << ": versions leaked in Inserted state";
    led.forEachLeak([&](Addr a, EpochWide oid,
                        const obs::Ledger::Entry &) {
        ADD_FAILURE() << workload << ": leaked line " << std::hex << a
                      << " oid " << std::dec << oid;
    });
    EXPECT_GT(led.insertedCount(), 0u)
        << workload << ": run produced no versions at all";
    EXPECT_EQ(led.dataBytesTotal(),
              sys.stats().nvmWriteBytes[static_cast<std::size_t>(
                  NvmWriteKind::Data)])
        << workload << ": per-cause tallies must sum to the Data row";

    obs::ledger().reset();
    obs::ledger().setArmed(false);
}

TEST(LedgerIntegration, BtreeCompletesAndAttributes)
{
    if (!obs::ledgerCompiled)
        GTEST_SKIP() << "built with NVO_TRACE=OFF";
    checkRunInvariants(smallConfig(), "btree");
}

TEST(LedgerIntegration, KmeansCompletesAndAttributes)
{
    if (!obs::ledgerCompiled)
        GTEST_SKIP() << "built with NVO_TRACE=OFF";
    checkRunInvariants(smallConfig(), "kmeans");
}

TEST(LedgerIntegration, CompactionRunStaysBalanced)
{
    if (!obs::ledgerCompiled)
        GTEST_SKIP() << "built with NVO_TRACE=OFF";
    Config cfg = smallConfig();
    // Starve the pool so compaction actually moves versions; the
    // CompactionCopy cause and the Compacted terminal state must
    // still balance the books.
    cfg.set("mnm.pool_mb_per_omc", std::uint64_t(1));
    cfg.set("mnm.compaction_threshold", "0.02");
    checkRunInvariants(cfg, "btree");
}

TEST(LedgerIntegration, SeededDropMergeBugLeaks)
{
    if (!obs::ledgerCompiled)
        GTEST_SKIP() << "built with NVO_TRACE=OFF";
    if (audit::enabled)
        GTEST_SKIP() << "NVO_AUDIT's merge-completeness sweep aborts "
                        "on the seeded bug before the ledger reports";
    setQuiet(true);
    Config cfg = smallConfig();
    cfg.set("mnm.test_drop_merge", "true");
    System sys(cfg, "nvoverlay", "btree");
    sys.run();

    EXPECT_GT(obs::ledger().liveInserted(), 0u)
        << "dropping every 5th merge must show up as leaks";
    std::uint64_t seen = 0;
    obs::ledger().forEachLeak(
        [&](Addr, EpochWide, const obs::Ledger::Entry &e) {
            ++seen;
            EXPECT_EQ(e.state, obs::VerState::Inserted);
        });
    EXPECT_EQ(seen, obs::ledger().liveInserted());

    obs::ledger().reset();
    obs::ledger().setArmed(false);
}

TEST(LedgerIntegration, JsonSectionIsBalanced)
{
    if (!obs::ledgerCompiled)
        GTEST_SKIP() << "built with NVO_TRACE=OFF";
    ArmedLedger armed;
    obs::Ledger &led = obs::ledger();
    led.seal(0, 0x1000, 2, 1);
    led.insertVersion(0, 0x1000, 2, obs::LedgerCause::StoreEvict, 2);
    led.dataWrite(obs::LedgerCause::StoreEvict, 64);

    std::ostringstream os;
    {
        obs::JsonWriter w(os);
        led.writeJson(w);
        EXPECT_TRUE(w.balanced());
    }
    const std::string text = os.str();
    EXPECT_NE(text.find("\"leaked\":1"), std::string::npos) << text;
    EXPECT_NE(text.find("\"store-evict\""), std::string::npos) << text;
}

} // namespace
} // namespace nvo
