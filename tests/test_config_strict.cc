/**
 * @file
 * Strict-config accounting: every getter marks its key consumed,
 * setDerived marks harness-computed keys consumed at the point they
 * are written, and unreadKeys() reports exactly the explicitly-set
 * keys nothing ever read (the nvo_sim warning / `cfg.strict=1`
 * error).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/config.hh"
#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"

namespace nvo
{
namespace
{

TEST(ConfigStrict, GettersMarkKeysConsumed)
{
    Config cfg;
    cfg.set("a.u64", std::uint64_t(7));
    cfg.set("a.f64", "0.5");
    cfg.set("a.bool", "true");
    cfg.set("a.str", "hello");
    cfg.set("a.never", "unused");
    EXPECT_EQ(cfg.unreadKeys().size(), 5u);

    EXPECT_EQ(cfg.getU64("a.u64", 0), 7u);
    EXPECT_DOUBLE_EQ(cfg.getF64("a.f64", 0.0), 0.5);
    EXPECT_TRUE(cfg.getBool("a.bool", false));
    EXPECT_EQ(cfg.getStr("a.str", ""), "hello");

    auto unread = cfg.unreadKeys();
    ASSERT_EQ(unread.size(), 1u);
    EXPECT_EQ(unread[0], "a.never");
}

TEST(ConfigStrict, DefaultedReadsDoNotInventUnreadKeys)
{
    Config cfg;
    // Reading an absent key records the default into the resolved
    // view but must not make unreadKeys() report it: only explicitly
    // set keys can be "set but never read".
    EXPECT_EQ(cfg.getU64("missing.key", 3), 3u);
    EXPECT_TRUE(cfg.unreadKeys().empty());
}

TEST(ConfigStrict, HasDoesNotMarkConsumed)
{
    Config cfg;
    cfg.set("probe.only", "1");
    // has() is an existence probe, not a consumption: code that
    // checks has() and then ignores the value should still be
    // flagged.
    EXPECT_TRUE(cfg.has("probe.only"));
    ASSERT_EQ(cfg.unreadKeys().size(), 1u);
    EXPECT_EQ(cfg.unreadKeys()[0], "probe.only");
}

TEST(ConfigStrict, SetDerivedCountsAsConsumed)
{
    Config cfg;
    cfg.setDerived("derived.key", std::uint64_t(42));
    EXPECT_TRUE(cfg.unreadKeys().empty());
    // And it really is set.
    EXPECT_EQ(cfg.getU64("derived.key", 0), 42u);
}

TEST(ConfigStrict, FullRunConsumesEveryDefaultKey)
{
    setQuiet(true);
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(200));
    cfg.set("wl.hashtable.prefill", std::uint64_t(64));
    cfg.set("nvo.typo_key", std::uint64_t(1));   // nothing reads this
    // A key that no longer exists: a stale script setting it must be
    // told, not silently run without it.
    cfg.set("par.shards", std::uint64_t(2));
    System sys(cfg, "nvoverlay", "hashtable");
    sys.run();
    auto unread = sys.config().unreadKeys();
    // The two seeded keys are flagged...
    for (const char *key : {"nvo.typo_key", "par.shards"})
        EXPECT_NE(std::find(unread.begin(), unread.end(), key),
                  unread.end())
            << key;
    // ...and they are the only unread keys: every legitimate knob the
    // test set was consumed by the harness or the scheme.
    EXPECT_EQ(unread.size(), 2u)
        << "unexpected unread keys beyond the seeded two";
}

TEST(ConfigStrict, RetiredPolicyKeysAreReported)
{
    // The walker governor, the tenant pacer, the compaction governor
    // and eager sub-page reclamation no longer exist. A
    // policy-enabled run must report a stale script's keys for them
    // as unread (an error under cfg.strict), not run without them.
    setQuiet(true);
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(200));
    cfg.set("wl.hashtable.prefill", std::uint64_t(64));
    cfg.set("policy.enabled", std::uint64_t(1));
    cfg.set("policy.walker.hi", std::uint64_t(4));
    cfg.set("policy.tenant.pace", std::uint64_t(1));
    cfg.set("policy.compact.hi", std::uint64_t(90));
    cfg.set("policy.compact.lo", std::uint64_t(60));
    cfg.set("policy.compact.slope_w", std::uint64_t(4));
    cfg.set("mnm.auto_reclaim", "true");
    System sys(cfg, "nvoverlay", "hashtable");
    ASSERT_NE(sys.policyEngine(), nullptr);
    sys.run();
    auto unread = sys.config().unreadKeys();
    for (const char *key :
         {"policy.walker.hi", "policy.tenant.pace", "policy.compact.hi",
          "policy.compact.lo", "policy.compact.slope_w",
          "mnm.auto_reclaim"})
        EXPECT_NE(std::find(unread.begin(), unread.end(), key),
                  unread.end())
            << key;
}

TEST(ConfigStrict, CompactionWithDroppedTablesIsRejected)
{
    // Compaction reclaims by the GC refcounts that dropping merged
    // tables erases, so the pair is a config error naming both keys.
    Config cfg = defaultConfig();
    cfg.set("wl.ops", std::uint64_t(50));
    cfg.set("mnm.compaction_threshold", "0.5");
    cfg.set("mnm.drop_merged_tables", "true");
    EXPECT_EXIT(System(cfg, "nvoverlay", "btree"),
                ::testing::ExitedWithCode(1),
                "mnm.compaction_threshold=0.5 with "
                "mnm.drop_merged_tables=1");
}

} // namespace
} // namespace nvo
