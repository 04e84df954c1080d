/**
 * @file
 * Protocol invariant auditor: the Auditor registry, the NVO_AUDIT
 * macro's build gating, clean sweeps over healthy systems, and (in
 * NVO_AUDIT builds) death tests proving seeded corruption is caught.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "common/audit.hh"
#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "mem/backing_store.hh"
#include "mem/dram_model.hh"
#include "mem/nvm_model.hh"
#include "nvoverlay/epoch_table.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "nvoverlay/omc.hh"
#include "nvoverlay/page_pool.hh"

namespace nvo
{
namespace
{

Config
cfgSmall()
{
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(400));
    cfg.set("epoch.stores_global", std::uint64_t(8000));
    cfg.set("wl.btree.prefill", std::uint64_t(1024));
    return cfg;
}

TEST(AuditorRegistry, RunsSweepsInRegistrationOrder)
{
    Auditor a;
    std::vector<int> order;
    a.add("first", [&order] { order.push_back(1); });
    a.add("second", [&order] { order.push_back(2); });
    EXPECT_EQ(a.numChecks(), 2u);
    a.runAll();
    a.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
    EXPECT_EQ(a.sweeps(), 2u);
    EXPECT_EQ(a.sweepsExecuted(), 4u);
    EXPECT_EQ(a.currentSweep(), "");
}

TEST(AuditorRegistry, LightPassSkipsFullSweeps)
{
    Auditor a;
    std::vector<std::string> ran;
    a.add("cheap", [&ran] { ran.push_back("cheap"); },
          Auditor::Tier::Light);
    a.add("heavy", [&ran] { ran.push_back("heavy"); });
    a.runLight();
    EXPECT_EQ(ran, (std::vector<std::string>{"cheap"}));
    a.runAll();
    EXPECT_EQ(ran,
              (std::vector<std::string>{"cheap", "cheap", "heavy"}));
}

TEST(AuditorRegistry, CurrentSweepNamesTheRunningCheck)
{
    Auditor a;
    std::string seen;
    a.add("named-sweep", [&a, &seen] { seen = a.currentSweep(); });
    a.runAll();
    EXPECT_EQ(seen, "named-sweep");
}

TEST(AuditMacro, PassingCheckNeverFires)
{
    // Healthy both when audits are compiled in and when they are
    // compiled out (operands must still type-check either way).
    int evaluations = 0;
    auto count = [&evaluations] {
        ++evaluations;
        return true;
    };
    NVO_AUDIT(count(), "never shown");
    EXPECT_EQ(evaluations, audit::enabled ? 1 : 0);
}

TEST(AuditMacro, MessageOnlyEvaluatedOnFailure)
{
    int message_builds = 0;
    auto expensive = [&message_builds] {
        ++message_builds;
        return std::string("diagnostic");
    };
    NVO_AUDIT(true, expensive());
    EXPECT_EQ(message_builds, 0)
        << "msg must not be evaluated for passing checks";
}

TEST(AuditMacro, CountsExecutedChecks)
{
    std::uint64_t before = audit::checksExecuted();
    NVO_AUDIT(1 + 1 == 2, "arithmetic");
    NVO_AUDIT(true, "trivial");
    std::uint64_t after = audit::checksExecuted();
    EXPECT_EQ(after - before, audit::enabled ? 2u : 0u);
}

TEST(AuditSweeps, HealthySystemPassesAllSweeps)
{
    setQuiet(true);
    System sys(cfgSmall(), "nvoverlay", "btree");
    sys.run();
    // run() already audited at epoch boundaries and after finalize;
    // one more explicit pass must also be clean.
    sys.auditNow();
    if (audit::enabled) {
        EXPECT_GE(sys.auditor().numChecks(), 4u)
            << "hierarchy + scheme sweeps should be registered";
        EXPECT_GT(sys.auditor().sweeps(), 0u);
        EXPECT_GT(audit::checksExecuted(), 0u);
    } else {
        EXPECT_EQ(sys.auditor().numChecks(), 0u);
    }
}

TEST(AuditSweeps, BaselineSchemesRegisterHierarchySweep)
{
    setQuiet(true);
    System sys(cfgSmall(), "swlog", "btree");
    sys.run();
    sys.auditNow();
    if (audit::enabled) {
        EXPECT_EQ(sys.auditor().numChecks(), 1u)
            << "baselines audit the hierarchy only";
    }
}

TEST(AuditSweeps, BufferedBackendPassesSweeps)
{
    setQuiet(true);
    Config cfg = cfgSmall();
    cfg.set("mnm.use_buffer", "true");
    System sys(cfg, "nvoverlay", "btree");
    sys.run();
    sys.auditNow();
    SUCCEED();
}

#ifdef NVO_AUDIT_ENABLED

using AuditDeath = ::testing::Test;

TEST(AuditDeath, MacroPanicsWithConditionAndMessage)
{
    EXPECT_DEATH(NVO_AUDIT(2 + 2 == 5, "seeded failure"),
                 "audit failure.*2 \\+ 2 == 5.*seeded failure");
}

TEST(AuditDeath, PoolDoubleFreeIsCaught)
{
    PagePool pool(1ull << 40, 1ull << 20);
    Addr a = pool.allocLines(4, 0);
    ASSERT_NE(a, invalidAddr);
    // A second live block keeps the tenant's line count from going
    // negative, so the double free reaches the sweep.
    ASSERT_NE(pool.allocLines(4, 0), invalidAddr);
    pool.freeLines(a, 4, 0);
    pool.freeLines(a, 4, 0);   // seeded corruption: double free
    EXPECT_DEATH(pool.audit(), "audit failure");
}

TEST(AuditDeath, HeaderEpochCorruptionIsCaught)
{
    PagePool pool(1ull << 40, 1ull << 20);
    EpochTable::Params tp;
    EpochTable table(3, pool, tp);
    LineData d;
    d.bytes.fill(0xab);
    const Addr sub = table.insert(0x1000, 1, d).nvmAddr;
    ASSERT_NE(sub, invalidAddr);
    ASSERT_EQ(table.lookupNvm(0x1000), sub);
    // Seeded corruption: the persistent header claims another epoch.
    // (The first insert lands in slot 0, so its slot is the sub-page
    // base the header describes.)
    const PagePool::HeaderId id = table.pageEntry(0x1000)->header;
    ASSERT_NE(pool.header(id), nullptr);
    PagePool::SubPageHeader hdr = *pool.header(id);
    hdr.epoch = 99;
    pool.setHeader(id, sub, hdr);
    EXPECT_DEATH(table.audit(), "header epoch");
}

TEST(AuditDeath, BackendCorruptPoolIsCaught)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 2;
    params.numVds = 2;
    params.poolBytesPerOmc = 1ull << 22;
    MnmBackend backend(params, nvm, stats);
    LineData d;
    d.bytes.fill(1);
    backend.insertVersion(0x1000, 1, 1, d, 0);
    backend.audit();   // healthy so far
    unsigned omc = backend.omcOf(0x1000);
    Addr sub = backend.epochTable(omc, 1)->lookupNvm(0x1000);
    // Seeded corruption: free storage the table still maps (slot 0,
    // so `sub` is the block base the allocator handed out).
    backend.pool(omc).freeLines(sub, 4, 0);
    EXPECT_DEATH(backend.audit(), "audit failure");
}

TEST(AuditDeath, L2LineInMOutsideWalkSetIsCaught)
{
    RunStats stats;
    BackingStore backing;
    DramModel dram(DramModel::Params{}, &stats);
    Hierarchy::Params p;
    p.numCores = 2;
    p.coresPerVd = 2;
    p.numLlcSlices = 1;
    p.l1.sizeBytes = 4 * 1024;
    p.l2.sizeBytes = 16 * 1024;
    p.llc.sliceBytes = 64 * 1024;
    Hierarchy hier(p, backing, dram, stats);
    const Addr x = 0x10000;
    hier.load(0, x, 0);   // sole sharer: the L2 grants E
    hier.audit();         // healthy so far
    CacheLine *line = hier.l2(0).array().probe(x);
    ASSERT_NE(line, nullptr);
    ASSERT_EQ(line->state, CohState::E);
    // Seeded corruption: M set without L2Cache::setModified, so the
    // tag walk, which visits only the walk set, would skip the line.
    line->state = CohState::M;
    EXPECT_DEATH(hier.audit(), "outside the walk set");
}

#else // !NVO_AUDIT_ENABLED

TEST(AuditDeath, SkippedWhenAuditsCompiledOut)
{
    GTEST_SKIP() << "build compiled without NVO_AUDIT";
}

#endif

} // namespace
} // namespace nvo
