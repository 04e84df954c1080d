/**
 * @file
 * Multi-tenant snapshotting (docs/MULTITENANCY.md): ASID-tagged
 * version keys, per-tenant recovery, quota/QoS enforcement, and the
 * per-tenant accounting invariants.
 *
 * The headline isolation property: tenant A's snapshot and recovery
 * are byte-identical whether A runs solo or interleaved with any
 * co-tenant activity, and co-tenant misbehaviour surfaces only as
 * that tenant's own stalls/rejections — never as holes or content
 * changes in A's image.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "fault/crash_sim.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "mem/nvm_model.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "nvoverlay/omc.hh"
#include "nvoverlay/recovery.hh"
#include "nvoverlay/snapshot_reader.hh"
#include "tenant/tenant.hh"

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

class TenantBackendTest : public ::testing::Test
{
  protected:
    TenantBackendTest() : nvm(NvmModel::Params{}, &stats)
    {
        params.numOmcs = 2;
        params.numVds = 2;
        params.poolBytesPerOmc = 1ull << 22;
        backend = std::make_unique<MnmBackend>(params, nvm, stats);
    }

    void
    rebuild()
    {
        backend = std::make_unique<MnmBackend>(params, nvm, stats);
    }

    /** Tenant @p asid's deterministic insert schedule: @p epochs
     *  epochs over @p lines lines of its private arena, content a
     *  pure function of (asid, epoch, line). Per-tenant sequence
     *  numbers, so the schedule is identical solo or interleaved. */
    void
    playTenant(tenant::Asid asid, unsigned epochs, unsigned lines)
    {
        SeqNo &seq = seqOf[asid];
        for (unsigned e = 1; e <= epochs; ++e)
            for (unsigned i = 0; i < lines; ++i)
                backend->insertVersion(
                    tenant::tag(asid, 0x10000 + i * 64), e, ++seq,
                    lineOf(static_cast<std::uint8_t>(
                        asid * 32 + e * 8 + (i % 8))),
                    0);
    }

    void
    certify(EpochWide min_ver)
    {
        backend->reportMinVer(0, min_ver, 0);
        backend->reportMinVer(1, min_ver, 0);
    }

    RunStats stats;
    NvmModel nvm;
    MnmBackend::Params params;
    std::unique_ptr<MnmBackend> backend;
    std::map<tenant::Asid, SeqNo> seqOf;
};

TEST_F(TenantBackendTest, CoTenantsShareTablesWithoutCollisions)
{
    // Four tenants write the SAME local addresses; the tag keeps
    // every (asid, line, OID) key distinct in the shared tables.
    for (tenant::Asid a = 1; a <= 4; ++a)
        playTenant(a, 2, 8);
    certify(3);
    for (tenant::Asid a = 1; a <= 4; ++a) {
        LineData out;
        ASSERT_TRUE(
            backend->readMaster(tenant::tag(a, 0x10000), out));
        EXPECT_EQ(out, lineOf(static_cast<std::uint8_t>(a * 32 + 16)))
            << "tenant " << a << " reads its own newest version";
    }
}

TEST_F(TenantBackendTest, TenantRecoveryIgnoresCoTenantActivity)
{
    // Solo run of tenant 1.
    playTenant(1, 3, 16);
    certify(4);
    RecoveryManager solo_rm(*backend);
    auto solo = solo_rm.recoverTenant(1);
    EXPECT_EQ(RecoveryManager::validateTenant(solo, *backend, 1), "");
    ASSERT_EQ(solo.linesRestored, 16u);

    // Same tenant-1 schedule interleaved with three noisy co-tenants
    // hammering the same local address range.
    seqOf.clear();
    rebuild();
    for (unsigned e = 1; e <= 3; ++e) {
        for (tenant::Asid a = 1; a <= 4; ++a) {
            SeqNo &seq = seqOf[a];
            for (unsigned i = 0; i < (a == 1 ? 16u : 24u); ++i)
                backend->insertVersion(
                    tenant::tag(a, 0x10000 + i * 64), e, ++seq,
                    lineOf(static_cast<std::uint8_t>(
                        a * 32 + e * 8 + (i % 8))),
                    0);
        }
    }
    certify(4);
    RecoveryManager rm(*backend);
    auto mixed = rm.recoverTenant(1);
    EXPECT_EQ(RecoveryManager::validateTenant(mixed, *backend, 1), "");

    // Byte-identical isolation: same rec-epoch, same line count, and
    // the same content at every line of tenant 1's image.
    EXPECT_EQ(mixed.recEpoch, solo.recEpoch);
    EXPECT_EQ(mixed.linesRestored, solo.linesRestored);
    for (unsigned i = 0; i < 16; ++i) {
        Addr line = tenant::tag(1, 0x10000 + i * 64);
        LineData a, b;
        solo.image->readLine(line, a);
        mixed.image->readLine(line, b);
        EXPECT_EQ(a, b) << "line " << i;
    }
}

TEST_F(TenantBackendTest, TenantRecoveriesPartitionFullRecovery)
{
    playTenant(1, 2, 8);
    playTenant(2, 2, 12);
    playTenant(3, 1, 4);
    backend->insertVersion(0x50000, 1, 1, lineOf(9), 0);   // asid 0
    certify(3);

    RecoveryManager rm(*backend);
    auto full = rm.recover();
    EXPECT_EQ(RecoveryManager::validate(full, *backend), "");

    std::uint64_t sum = 0;
    for (tenant::Asid a = 0; a <= 3; ++a) {
        auto r = rm.recoverTenant(a);
        EXPECT_EQ(RecoveryManager::validateTenant(r, *backend, a), "")
            << "asid " << a;
        sum += r.linesRestored;
    }
    EXPECT_EQ(sum, full.linesRestored)
        << "per-tenant images partition the full image";
}

TEST_F(TenantBackendTest, TenantRecoverySurvivesCrashRebuild)
{
    for (tenant::Asid a = 1; a <= 3; ++a)
        playTenant(a, 3, 8);
    certify(4);
    // Crash: volatile per-epoch tables drop, then rebuild from the
    // persistent sub-page headers — tenant subtrees must reassemble.
    backend->crashReset();

    RecoveryManager rm(*backend);
    for (tenant::Asid a = 1; a <= 3; ++a) {
        auto r = rm.recoverTenant(a);
        EXPECT_EQ(RecoveryManager::validateTenant(r, *backend, a), "")
            << "asid " << a;
        EXPECT_EQ(r.linesRestored, 8u);
        LineData out;
        r.image->readLine(tenant::tag(a, 0x10000), out);
        EXPECT_EQ(out,
                  lineOf(static_cast<std::uint8_t>(a * 32 + 24)));
    }
}

TEST_F(TenantBackendTest, QuotaHardCapThrottlesButNeverDrops)
{
    tenant::TenantManager::Params qp;
    qp.quotaLines = 8;
    qp.quotaPenaltyBytes = 4096;
    tenant::TenantManager tm(qp, stats);
    tm.setOccupancyFn(
        [this](tenant::Asid a) { return backend->poolLinesOf(a); });
    backend->setTenantManager(&tm);

    playTenant(1, 1, 64);   // 8x over the hard cap
    const auto *t = tm.tenant(1);
    ASSERT_NE(t, nullptr);
    EXPECT_GT(t->quotaRejections, 0u) << "over-cap inserts priced";
    EXPECT_GT(tm.throttleStall(1, 0), 0u)
        << "penalty debt back-pressures the offender";
    EXPECT_EQ(tm.throttleStall(2, 0), 0u)
        << "co-tenants absorb none of the penalty";

    // Never silently dropped: every line is still in the snapshot.
    certify(2);
    unsigned present = 0;
    LineData out;
    for (unsigned i = 0; i < 64; ++i)
        if (backend->readMaster(tenant::tag(1, 0x10000 + i * 64),
                                out))
            ++present;
    EXPECT_EQ(present, 64u);
    backend->setTenantManager(nullptr);
}

TEST_F(TenantBackendTest, PerTenantDataBytesSumExactly)
{
    tenant::TenantManager tm({}, stats);
    backend->setTenantManager(&tm);
    playTenant(1, 2, 16);
    playTenant(2, 1, 32);
    playTenant(7, 3, 4);
    tm.exportStats();
    std::uint64_t sum = 0;
    for (tenant::Asid a : {1, 2, 7})
        sum += stats.extra["tenant." + std::to_string(a) +
                           ".data_bytes"];
    EXPECT_EQ(sum, stats.nvmDataBytes())
        << "all-tagged traffic: per-tenant tallies are exhaustive";
    backend->setTenantManager(nullptr);
}

TEST(TenantQos, TokenBucketConvertsDebtToStalls)
{
    RunStats stats;
    tenant::TenantManager::Params qp;
    qp.qosBytesPerKCycle = 64;
    qp.qosBurstBytes = 128;
    tenant::TenantManager tm(qp, stats);

    // Burn through the burst at cycle 0: debt accrues.
    for (int i = 0; i < 8; ++i)
        tm.onInsert(1, 64, 0);
    Cycle stall = tm.throttleStall(1, 0);
    EXPECT_GT(stall, 0u);
    EXPECT_EQ(tm.tenant(1)->throttleStallCycles, stall);
    // The stall repaid the debt; an idle stretch earns tokens back
    // and the next store passes free.
    tm.onInsert(1, 64, stall + 100000);
    EXPECT_EQ(tm.throttleStall(1, stall + 100000), 0u);
    // An untouched tenant never stalls.
    EXPECT_EQ(tm.throttleStall(2, 0), 0u);
    // ASID 0 (untenanted) is never managed.
    tm.onInsert(0, 1 << 20, 0);
    EXPECT_EQ(tm.throttleStall(0, 0), 0u);
    EXPECT_EQ(tm.tenant(0), nullptr);
}

TEST(TenantCompaction, OrderServesOccupiedTenantsFirst)
{
    RunStats stats;
    tenant::TenantManager tm({}, stats);
    tm.setOccupancyFn([](tenant::Asid a) {
        return a == 2 ? 100u : 10u;   // tenant 2 dominates the pool
    });
    std::vector<Addr> lines = {
        tenant::tag(1, 0x1000), tenant::tag(2, 0x2000),
        tenant::tag(1, 0x1040), tenant::tag(3, 0x3000),
        tenant::tag(2, 0x2040)};
    tm.orderForCompaction(lines);
    ASSERT_EQ(lines.size(), 5u);
    EXPECT_EQ(tenant::asidOf(lines[0]), 2u);
    EXPECT_EQ(tenant::asidOf(lines[1]), 2u)
        << "heaviest occupant compacted first";
}

/** Full-system multi-tenant runs over the KV-service workload. */
Config
tenantSystemConfig(unsigned tenants)
{
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(300));
    cfg.set("tenant.enabled", std::uint64_t(1));
    cfg.set("wl.kv.tenants", std::uint64_t(tenants));
    cfg.set("wl.kv.keys", std::uint64_t(512));
    return cfg;
}

TEST(TenantSystem, KvServiceRunsAreDeterministic)
{
    setQuiet(true);
    auto run = [] {
        System sys(tenantSystemConfig(4), "nvoverlay", "kv_service");
        sys.run();
        RunStats st = sys.stats();
        // Host wall-clock timings are the one legitimately
        // nondeterministic stat; everything simulated must reproduce.
        for (auto it = st.extra.begin(); it != st.extra.end();)
            it = it->first.rfind("host_", 0) == 0 ? st.extra.erase(it)
                                                  : std::next(it);
        return st;
    };
    RunStats a = run();
    RunStats b = run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.nvmDataBytes(), b.nvmDataBytes());
    EXPECT_EQ(a.extra, b.extra) << "per-tenant tallies reproduce";
}

TEST(TenantSystem, EveryTenantRecoversWhileOthersLive)
{
    setQuiet(true);
    constexpr unsigned tenants = 4;
    System sys(tenantSystemConfig(tenants), "nvoverlay",
               "kv_service");
    sys.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    scheme.backend().crashReset();

    RecoveryManager rm(scheme.backend());
    auto full = rm.recover();
    EXPECT_EQ(RecoveryManager::validate(full, scheme.backend()), "");
    ASSERT_GT(full.recEpoch, 0u);

    // Each tenant recovers independently — the co-tenants' state is
    // untouched, and the per-tenant images partition the full image
    // line-for-line, content included.
    std::uint64_t sum = 0;
    for (tenant::Asid a = 0; a <= tenants; ++a) {
        auto r = rm.recoverTenant(a);
        EXPECT_EQ(RecoveryManager::validateTenant(
                      r, scheme.backend(), a),
                  "")
            << "asid " << a;
        EXPECT_EQ(r.recEpoch, full.recEpoch);
        sum += r.linesRestored;
        if (a == 0)
            continue;
        EXPECT_GT(r.linesRestored, 0u) << "tenant " << a << " wrote";
        unsigned mismatches = 0;
        scheme.backend().forEachMasterEntry(
            [&](Addr line, const MasterTable::Entry &) {
                if (tenant::asidOf(line) != a)
                    return;
                LineData mine, whole;
                r.image->readLine(line, mine);
                full.image->readLine(line, whole);
                if (!(mine == whole))
                    ++mismatches;
            });
        EXPECT_EQ(mismatches, 0u) << "asid " << a;
    }
    EXPECT_EQ(sum, full.linesRestored);
}

TEST(TenantSystem, SnapshotReaderResolvesTenantLocalAddresses)
{
    setQuiet(true);
    System sys(tenantSystemConfig(2), "nvoverlay", "kv_service");
    sys.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    SnapshotReader reader(scheme.backend());
    EpochWide rec = scheme.backend().recEpoch();
    ASSERT_GT(rec, 0u);

    // readTenantLine(asid, local) is readLine(tag(asid, local)).
    Addr probe = invalidAddr;
    scheme.backend().forEachMasterEntry(
        [&](Addr line, const MasterTable::Entry &) {
            if (probe == invalidAddr && tenant::asidOf(line) == 1)
                probe = line;
        });
    ASSERT_NE(probe, invalidAddr);
    auto direct = reader.readLine(probe, rec);
    auto local = reader.readTenantLine(1, tenant::untag(probe), rec);
    ASSERT_TRUE(direct.has_value());
    ASSERT_TRUE(local.has_value());
    EXPECT_EQ(direct->data, local->data);
    EXPECT_EQ(direct->epoch, local->epoch);
}

TEST(TenantSystem, CrashCampaignHoldsUnderMultiTenancy)
{
    // The "crash anywhere" theorem with four tenants sharing the
    // backend: seeded power cuts across the KV-service run must
    // always recover a consistent image (tagged lines included).
    Config cfg = tenantSystemConfig(4);
    // Short epochs so crash points land beyond the first certified
    // rec-epoch and the campaign verifies restored lines.
    cfg.set("wl.ops", std::uint64_t(600));
    cfg.set("epoch.stores_global", std::uint64_t(8000));
    fault::CampaignParams params;
    params.workloads = {"kv_service"};
    params.trials = 6;
    params.seed = 7;
    fault::CampaignResult res = runCrashCampaign(cfg, params);
    EXPECT_EQ(res.trials, 6u);
    EXPECT_TRUE(res.passed()) << res.failingRepro;
    EXPECT_GT(res.linesChecked, 0u);
}

TEST(TenantSystem, QuotaPressureIsolatedToOffender)
{
    setQuiet(true);
    // Tight quota + QoS: stalls and rejections must appear, and only
    // ever against tenants, never against the untenanted stream.
    Config cfg = tenantSystemConfig(4);
    cfg.set("tenant.quota_lines", std::uint64_t(300));
    cfg.set("tenant.qos_bytes_per_kcycle", std::uint64_t(8));
    cfg.set("tenant.qos_burst_bytes", std::uint64_t(2048));
    System sys(cfg, "nvoverlay", "kv_service");
    sys.run();
    const RunStats &st = sys.stats();
    auto extra = [&](const std::string &k) {
        auto it = st.extra.find(k);
        return it == st.extra.end() ? 0ull : it->second;
    };
    EXPECT_GT(extra("tenant_quota_rejections"), 0u);
    std::uint64_t per_tenant_stalls = 0;
    for (tenant::Asid a = 1; a <= 4; ++a)
        per_tenant_stalls += extra(
            "tenant." + std::to_string(a) + ".throttle_stalls");
    EXPECT_EQ(per_tenant_stalls, extra("tenant_throttle_stalls"))
        << "every stall cycle is attributed to exactly one tenant";
}

} // namespace
} // namespace nvo
