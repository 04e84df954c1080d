/**
 * @file
 * NVOverlay version access protocol tests (paper Sec. IV, Figs. 4-8)
 * driven through a mock VersionCtrl so every epoch transition and
 * every version leaving a VD can be asserted precisely.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "mem/backing_store.hh"
#include "mem/dram_model.hh"
#include "mem/write_tracker.hh"

namespace nvo
{
namespace
{

struct MockCtrl : VersionCtrl
{
    explicit MockCtrl(unsigned num_vds) : epochs(num_vds, 1) {}

    struct Accepted
    {
        Addr addr;
        EpochWide oid;
        SeqNo seq;
        std::uint64_t digest;
        EvictReason why;
    };

    EpochWide
    vdEpoch(unsigned vd) const override
    {
        return epochs[vd];
    }

    Cycle
    observeRemoteVersion(unsigned vd, EpochWide rv, Cycle) override
    {
        if (rv > epochs[vd]) {
            epochs[vd] = rv;
            ++lamportCount;
        }
        return 0;
    }

    Cycle
    acceptVersion(unsigned, Addr addr, EpochWide oid, SeqNo seq,
                  const LineData &content, EvictReason why,
                  Cycle) override
    {
        accepted.push_back(
            Accepted{addr, oid, seq, content.digest(), why});
        return 0;
    }

    std::vector<EpochWide> epochs;
    std::vector<Accepted> accepted;
    std::uint64_t lamportCount = 0;
};

class VersionProtocolTest : public ::testing::Test
{
  protected:
    VersionProtocolTest() : dram(DramModel::Params{}, &stats), ctrl(4)
    {
        Hierarchy::Params p;
        p.numCores = 8;
        p.coresPerVd = 2;
        p.numLlcSlices = 2;
        p.l1.sizeBytes = 4 * 1024;
        p.l2.sizeBytes = 16 * 1024;
        p.llc.sliceBytes = 64 * 1024;
        hier = std::make_unique<Hierarchy>(p, backing, dram, stats);
        hier->setVersionCtrl(&ctrl);
        hier->setWriteTracker(&tracker);
    }

    std::uint64_t
    currentDigest(Addr line)
    {
        LineData d;
        backing.readLine(lineAlign(line), d);
        return d.digest();
    }

    RunStats stats;
    BackingStore backing;
    DramModel dram;
    MockCtrl ctrl;
    WriteTracker tracker;
    std::unique_ptr<Hierarchy> hier;
    static constexpr Addr X = 0x10000;
};

TEST_F(VersionProtocolTest, FirstStoreTagsCurrentEpoch)
{
    hier->store(0, X, nullptr, 8, 0);
    const CacheLine *l1 = hier->l1Line(0, X);
    EXPECT_EQ(l1->oid, 1u);
    EXPECT_TRUE(l1->dirty);
    EXPECT_EQ(ctrl.accepted.size(), 0u);
}

TEST_F(VersionProtocolTest, StoreEvictionSealsOldVersion)
{
    hier->store(0, X, nullptr, 8, 0);
    std::uint64_t v1_digest = currentDigest(X);
    ctrl.epochs[0] = 2;   // epoch advance

    hier->store(0, X, nullptr, 8, 0);
    const CacheLine *l1 = hier->l1Line(0, X);
    EXPECT_EQ(l1->oid, 2u) << "store completes under the new epoch";
    const CacheLine *l2 = hier->l2Line(0, X);
    ASSERT_NE(l2, nullptr);
    EXPECT_TRUE(l2->dirty);
    EXPECT_EQ(l2->oid, 1u) << "immutable version pushed to the L2";
    ASSERT_TRUE(l2->sealed());
    EXPECT_EQ(l2->sealedData->digest(), v1_digest)
        << "sealed content is the pre-store (epoch 1) image";
    EXPECT_EQ(ctrl.accepted.size(), 0u)
        << "version buffered in L2, not yet at the OMC";
}

TEST_F(VersionProtocolTest, SecondStoreEvictionDisplacesL2Version)
{
    hier->store(0, X, nullptr, 8, 0);
    std::uint64_t v1_digest = currentDigest(X);
    ctrl.epochs[0] = 2;
    hier->store(0, X, nullptr, 8, 0);
    ctrl.epochs[0] = 3;
    hier->store(0, X, nullptr, 8, 0);

    ASSERT_EQ(ctrl.accepted.size(), 1u);
    EXPECT_EQ(ctrl.accepted[0].addr, X);
    EXPECT_EQ(ctrl.accepted[0].oid, 1u);
    EXPECT_EQ(ctrl.accepted[0].digest, v1_digest);
    const CacheLine *l2 = hier->l2Line(0, X);
    EXPECT_EQ(l2->oid, 2u);
    EXPECT_TRUE(l2->sealed());
    EXPECT_EQ(hier->l1Line(0, X)->oid, 3u);
    // OMC writes displaced by store-evictions carry that reason
    // (the paper's Fig. 15 / kmeans decomposition accounting).
    EXPECT_EQ(stats.evictReason[static_cast<int>(
                  EvictReason::StoreEvict)],
              1u);
}

TEST_F(VersionProtocolTest, SameEpochStoresNeedNoEviction)
{
    for (int i = 0; i < 5; ++i)
        hier->store(0, X, nullptr, 8, 0);
    EXPECT_EQ(ctrl.accepted.size(), 0u);
    EXPECT_EQ(stats.evictReason[static_cast<int>(
                  EvictReason::StoreEvict)],
              0u);
}

TEST_F(VersionProtocolTest, ExternalDowngradeWritesBackNewest)
{
    hier->store(0, X, nullptr, 8, 0);
    std::uint64_t v1_digest = currentDigest(X);
    hier->load(2, X, 0);   // VD 1 reads

    ASSERT_EQ(ctrl.accepted.size(), 1u);
    EXPECT_EQ(ctrl.accepted[0].oid, 1u);
    EXPECT_EQ(ctrl.accepted[0].digest, v1_digest);
    EXPECT_EQ(ctrl.accepted[0].why, EvictReason::Coherence);
    EXPECT_EQ(hier->l1Line(0, X)->state, CohState::S);
    EXPECT_EQ(hier->l1Line(2, X)->state, CohState::S);
    EXPECT_EQ(hier->l1Line(2, X)->oid, 1u)
        << "response carries the version (RV)";
}

TEST_F(VersionProtocolTest, DowngradeWithTwoVersions)
{
    // Build L1 v2 / sealed L2 v1 in VD0 (Fig. 5 with opt. 1).
    hier->store(0, X, nullptr, 8, 0);
    std::uint64_t v1_digest = currentDigest(X);
    ctrl.epochs[0] = 2;
    hier->store(0, X, nullptr, 8, 0);
    std::uint64_t v2_digest = currentDigest(X);

    hier->load(2, X, 0);
    ASSERT_EQ(ctrl.accepted.size(), 2u);
    // Old sealed version goes to the OMC only; newest goes to
    // LLC + OMC as the current image.
    EXPECT_EQ(ctrl.accepted[0].oid, 1u);
    EXPECT_EQ(ctrl.accepted[0].digest, v1_digest);
    EXPECT_EQ(ctrl.accepted[1].oid, 2u);
    EXPECT_EQ(ctrl.accepted[1].digest, v2_digest);
    EXPECT_EQ(hier->l1Line(2, X)->oid, 2u);
}

TEST_F(VersionProtocolTest, InvalidationTransfersNewestCacheToCache)
{
    // Fig. 6 optimization 2: the newest dirty version moves to the
    // requestor without an OMC write.
    hier->store(0, X, nullptr, 8, 0);
    hier->store(2, X, nullptr, 8, 0);   // VD 1, same epoch
    EXPECT_EQ(ctrl.accepted.size(), 0u);
    const CacheLine *l1 = hier->l1Line(2, X);
    EXPECT_EQ(l1->state, CohState::M);
    EXPECT_TRUE(l1->dirty);
    EXPECT_EQ(hier->l1Line(0, X), nullptr);
    EXPECT_EQ(hier->l2Line(0, X), nullptr);
}

TEST_F(VersionProtocolTest, InvalidationWithOldL2Version)
{
    hier->store(0, X, nullptr, 8, 0);
    std::uint64_t v1_digest = currentDigest(X);
    ctrl.epochs[0] = 2;
    hier->store(0, X, nullptr, 8, 0);   // sealed v1 now in VD0's L2

    hier->store(2, X, nullptr, 8, 0);   // VD1 invalidates VD0
    // Old sealed version persisted; newest transferred c2c, then
    // sealed in VD1 by its own store-eviction (Lamport moved VD1 to
    // epoch 2, matching the incoming version).
    ASSERT_EQ(ctrl.accepted.size(), 1u);
    EXPECT_EQ(ctrl.accepted[0].oid, 1u);
    EXPECT_EQ(ctrl.accepted[0].digest, v1_digest);
    EXPECT_EQ(ctrl.epochs[1], 2u) << "Lamport sync to the version";
    EXPECT_EQ(hier->l1Line(2, X)->oid, 2u);
}

TEST_F(VersionProtocolTest, LamportAdvanceOnRead)
{
    ctrl.epochs[0] = 7;
    hier->store(0, X, nullptr, 8, 0);
    EXPECT_EQ(ctrl.epochs[1], 1u);
    hier->load(2, X, 0);
    EXPECT_EQ(ctrl.epochs[1], 7u);
    EXPECT_GE(ctrl.lamportCount, 1u);
}

TEST_F(VersionProtocolTest, LamportAdvanceThroughMemory)
{
    // The OID survives eviction to LLC/DRAM (Sec. IV-A4): a later
    // reader must still observe it.
    ctrl.epochs[0] = 9;
    hier->store(0, X, nullptr, 8, 0);
    // Evict everything from VD0 by flushing.
    hier->flushAll(0);
    hier->load(2, X, 0);
    EXPECT_EQ(ctrl.epochs[1], 9u);
}

TEST_F(VersionProtocolTest, TagWalkCollectsOldVersions)
{
    hier->store(0, X, nullptr, 8, 0);
    hier->store(0, X + 64, nullptr, 8, 0);
    std::uint64_t d0 = currentDigest(X);
    std::uint64_t d1 = currentDigest(X + 64);
    ctrl.epochs[0] = 2;

    auto scan = hier->tagWalkScan(0);
    EXPECT_EQ(scan.minVer, 1u);
    ASSERT_EQ(scan.versions.size(), 2u);
    std::map<Addr, std::uint64_t> got;
    for (const auto &v : scan.versions) {
        EXPECT_EQ(v.oid, 1u);
        got[v.addr] = v.content.digest();
    }
    EXPECT_EQ(got[X], d0);
    EXPECT_EQ(got[X + 64], d1);

    // Lines downgraded to clean; a second walk finds nothing.
    auto again = hier->tagWalkScan(0);
    EXPECT_EQ(again.versions.size(), 0u);
    EXPECT_EQ(again.minVer, 2u);
}

TEST_F(VersionProtocolTest, TagWalkSkipsCurrentEpochVersions)
{
    hier->store(0, X, nullptr, 8, 0);
    auto scan = hier->tagWalkScan(0);
    EXPECT_EQ(scan.versions.size(), 0u);
    EXPECT_EQ(scan.minVer, 1u);
    EXPECT_TRUE(hier->l1Line(0, X)->dirty) << "current epoch untouched";
}

TEST_F(VersionProtocolTest, WalkedLineKeepsNamingItsEpoch)
{
    // After a walk cleans a line, later write backs must still carry
    // the newest OID outward (the stale-RV regression test).
    ctrl.epochs[0] = 6;
    hier->store(0, X, nullptr, 8, 0);
    ctrl.epochs[0] = 7;
    hier->tagWalkScan(0);
    hier->flushAll(0);
    hier->load(2, X, 0);
    EXPECT_EQ(ctrl.epochs[1], 6u)
        << "reader observes the line's last-write epoch";
}

TEST_F(VersionProtocolTest, FlushAllEmitsEveryDirtyVersion)
{
    hier->store(0, X, nullptr, 8, 0);
    ctrl.epochs[0] = 2;
    hier->store(0, X, nullptr, 8, 0);
    hier->store(2, X + 4096, nullptr, 8, 0);
    hier->flushAll(0);
    // v1 + v2 from VD0 and v1 from VD1.
    EXPECT_EQ(ctrl.accepted.size(), 3u);
    EXPECT_EQ(hier->checkInvariants(), "");
    // Everything clean now: a second flush emits nothing.
    auto before = ctrl.accepted.size();
    hier->flushAll(0);
    EXPECT_EQ(ctrl.accepted.size(), before);
}

/**
 * The protocol correctness property (DESIGN.md Sec. 2): under random
 * traffic with random epoch advances, (a) structural invariants hold,
 * (b) per-line committed epochs are non-decreasing, and (c) after a
 * full flush, the newest accepted version of every (line, epoch)
 * matches the tracker's digest for that epoch.
 */
class VersionProtocolProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(VersionProtocolProperty, RandomTrafficCorrectness)
{
    RunStats stats;
    BackingStore backing;
    DramModel dram(DramModel::Params{}, &stats);
    MockCtrl ctrl(4);
    WriteTracker tracker;
    Hierarchy::Params p;
    p.numCores = 8;
    p.coresPerVd = 2;
    p.numLlcSlices = 2;
    p.l1.sizeBytes = 2 * 1024;
    p.l2.sizeBytes = 8 * 1024;
    p.llc.sliceBytes = 32 * 1024;
    Hierarchy hier(p, backing, dram, stats);
    hier.setVersionCtrl(&ctrl);
    hier.setWriteTracker(&tracker);

    Rng rng(GetParam() * 16127 + 3);
    for (int i = 0; i < 30000; ++i) {
        unsigned core = static_cast<unsigned>(rng.below(8));
        unsigned vd = core / 2;
        Addr a = 0x200000 + lineAlign(rng.below(600) * 64);
        if (rng.chance(0.01))
            ctrl.epochs[vd] += 1 + rng.below(3);
        if (rng.chance(0.02)) {
            // Drive the walker path: scanned versions drain to the
            // controller exactly as TagWalker does.
            unsigned wvd = static_cast<unsigned>(rng.below(4));
            auto scan = hier.tagWalkScan(wvd);
            for (const auto &v : scan.versions)
                ctrl.acceptVersion(wvd, v.addr, v.oid, v.seq,
                                   v.content, EvictReason::TagWalk, 0);
        }
        if (rng.chance(0.45))
            hier.store(core, a, nullptr, 8, 0);
        else
            hier.load(core, a, 0);
        if (i % 10000 == 0) {
            ASSERT_EQ(hier.checkInvariants(), "") << "op " << i;
        }
    }
    hier.flushAll(0);
    ASSERT_EQ(hier.checkInvariants(), "");
    EXPECT_TRUE(tracker.epochsMonotonic());

    // Newest accepted version per (line, epoch) must match the last
    // store of that epoch.
    std::map<std::pair<Addr, EpochWide>, MockCtrl::Accepted> newest;
    for (const auto &v : ctrl.accepted) {
        auto key = std::make_pair(v.addr, v.oid);
        auto it = newest.find(key);
        if (it == newest.end() || v.seq >= it->second.seq)
            newest[key] = v;
    }
    unsigned mismatches = 0;
    for (const auto &kv : newest) {
        auto expect =
            tracker.expectedDigest(kv.first.first, kv.first.second);
        ASSERT_TRUE(expect.has_value());
        if (*expect != kv.second.digest)
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(newest.size(), 100u) << "test exercised real traffic";
}

/**
 * Directory exactness through public accessors, over @p lines lines
 * from @p base spaced @p stride apart: a line has a directory entry
 * exactly when some L2 holds it, the entry's sharer VDs are exactly
 * those L2s, and an owner holds the line in E or M. Returns the first
 * violation, or "".
 */
std::string
directoryMismatch(const Hierarchy &hier, Addr base, unsigned lines,
                  Addr stride)
{
    for (unsigned k = 0; k < lines; ++k) {
        const Addr a = base + k * stride;
        std::uint32_t holders = 0;
        for (unsigned vd = 0; vd < hier.numVds(); ++vd)
            if (hier.l2Line(vd, a))
                holders |= 1u << vd;
        const DirEntry *e = hier.dirEntry(a);
        const std::string at = "line " + std::to_string(a) + ": ";
        if (!e) {
            if (holders != 0)
                return at + "held by an L2 but not in the directory";
            continue;
        }
        if (holders == 0)
            return at + "in the directory but held by no L2";
        if (e->sharerVds != holders)
            return at + "sharers " + std::to_string(e->sharerVds) +
                   " but L2 holders " + std::to_string(holders);
        if (e->ownerVd >= 0) {
            const CacheLine *l2 =
                hier.l2Line(static_cast<unsigned>(e->ownerVd), a);
            if (!l2 || !writable(l2->state))
                return at + "owner does not hold the line in E or M";
        }
    }
    return "";
}

/**
 * The directory lists exactly the L2-resident lines under random
 * traffic with tag walks and epoch advances (the RandomTraffic rig),
 * so its entries never outnumber the L2 slots: an entry leaves with
 * its last sharer.
 */
TEST_P(VersionProtocolProperty, DirectoryListsExactlyTheL2ResidentLines)
{
    RunStats stats;
    BackingStore backing;
    DramModel dram(DramModel::Params{}, &stats);
    MockCtrl ctrl(4);
    Hierarchy::Params p;
    p.numCores = 8;
    p.coresPerVd = 2;
    p.numLlcSlices = 2;
    p.l1.sizeBytes = 2 * 1024;
    p.l2.sizeBytes = 8 * 1024;
    p.llc.sliceBytes = 32 * 1024;
    Hierarchy hier(p, backing, dram, stats);
    hier.setVersionCtrl(&ctrl);

    constexpr Addr base = 0x200000;
    constexpr unsigned footprint = 600;   // > the 4 x 128 L2 slots
    Rng rng(GetParam() * 16127 + 3);
    for (int i = 0; i < 30000; ++i) {
        unsigned core = static_cast<unsigned>(rng.below(8));
        unsigned vd = core / 2;
        Addr a = base + rng.below(footprint) * lineBytes;
        if (rng.chance(0.01))
            ctrl.epochs[vd] += 1 + rng.below(3);
        if (rng.chance(0.02)) {
            unsigned wvd = static_cast<unsigned>(rng.below(4));
            auto scan = hier.tagWalkScan(wvd);
            for (const auto &v : scan.versions)
                ctrl.acceptVersion(wvd, v.addr, v.oid, v.seq,
                                   v.content, EvictReason::TagWalk, 0);
        }
        if (rng.chance(0.45))
            hier.store(core, a, nullptr, 8, 0);
        else
            hier.load(core, a, 0);
        if (i % 5000 == 4999) {
            ASSERT_EQ(hier.checkInvariants(), "") << "op " << i;
            ASSERT_EQ(directoryMismatch(hier, base, footprint, lineBytes),
                      "")
                << "op " << i;
        }
    }
    EXPECT_GT(stats.l2Misses, 5000u) << "L2s evicted in earnest";
    hier.flushAll(0);
    EXPECT_EQ(hier.checkInvariants(), "");
    EXPECT_EQ(directoryMismatch(hier, base, footprint, lineBytes), "");
}

/**
 * Eviction storm: two VDs with 16-line L2s load and store 64 lines
 * that all map to one L2 set. Every fill evicts, and every evicted
 * line whose last sharer left must leave the directory.
 */
TEST(DirectoryExactness, EvictionStormLeavesNoStaleEntries)
{
    RunStats stats;
    BackingStore backing;
    DramModel dram(DramModel::Params{}, &stats);
    Hierarchy::Params p;
    p.numCores = 4;
    p.coresPerVd = 2;
    p.numLlcSlices = 1;
    p.l1.sizeBytes = 512;   // 8 lines
    p.l1.ways = 2;
    p.l2.sizeBytes = 1024;  // 16 lines
    p.l2.ways = 2;
    p.llc.sliceBytes = 16 * 1024;
    Hierarchy hier(p, backing, dram, stats);

    constexpr Addr base = 0x100000;
    constexpr unsigned lines = 64;
    Rng rng(7);
    for (int i = 0; i < 4000; ++i) {
        const unsigned core = static_cast<unsigned>(rng.below(4));
        const Addr a = base + rng.below(lines) * 4096;
        if (rng.chance(0.5))
            hier.store(core, a, nullptr, 8, 0);
        else
            hier.load(core, a, 0);
    }
    EXPECT_EQ(hier.checkInvariants(), "");
    EXPECT_EQ(directoryMismatch(hier, base, lines, 4096), "");
    unsigned listed = 0;
    for (unsigned k = 0; k < lines; ++k)
        listed += hier.dirEntry(base + k * 4096) != nullptr;
    // The 64 lines share one set of each L2: two VDs x two ways.
    EXPECT_LE(listed, 2u * p.l2.ways) << "at most the L2 slots stay listed";
}

/** One hierarchy with its own memory image and epoch controller. */
struct WalkRig
{
    static Hierarchy::Params
    params()
    {
        Hierarchy::Params p;
        p.numCores = 8;
        p.coresPerVd = 2;
        p.numLlcSlices = 2;
        p.l1.sizeBytes = 2 * 1024;
        p.l2.sizeBytes = 8 * 1024;
        p.llc.sliceBytes = 32 * 1024;
        return p;
    }

    WalkRig()
        : dram(DramModel::Params{}, &stats), ctrl(4),
          hier(params(), backing, dram, stats)
    {
        hier.setVersionCtrl(&ctrl);
    }

    RunStats stats;
    BackingStore backing;
    DramModel dram;
    MockCtrl ctrl;
    Hierarchy hier;
};

/**
 * Reference tag walk: the full scan that visits every valid L2 line
 * of VD @p vd, built from public accessors only. tagWalkScan visits
 * the walk set instead and must produce the same result.
 */
Hierarchy::WalkScan
fullScanWalk(WalkRig &rig, unsigned vd)
{
    Hierarchy &hier = rig.hier;
    const unsigned per_vd = hier.numCores() / hier.numVds();
    Hierarchy::WalkScan scan;
    const EpochWide cur = rig.ctrl.vdEpoch(vd);
    scan.minVer = cur;
    auto collect = [&](Addr addr, EpochWide oid, SeqNo seq,
                       const LineData *sealed) {
        scan.minVer = std::min(scan.minVer, oid);
        Hierarchy::WalkVersion v;
        v.addr = addr;
        v.oid = oid;
        v.seq = seq;
        if (sealed)
            v.content = *sealed;
        else
            rig.backing.readLine(addr, v.content);
        scan.versions.push_back(std::move(v));
    };
    hier.l2(vd).array().forEachValid([&](CacheLine &line) {
        ++scan.linesScanned;
        bool any_dirty_left = false;
        for (unsigned i = 0; i < per_vd; ++i) {
            if (!L2Cache::hasSharer(line, i))
                continue;
            CacheLine *l1 =
                hier.l1(vd * per_vd + i).array().probe(line.addr);
            ASSERT_NE(l1, nullptr);
            if (l1->state != CohState::M || !l1->dirty)
                continue;
            if (l1->oid < cur) {
                collect(line.addr, l1->oid,
                        rig.backing.lineSeq(line.addr), nullptr);
                l1->dirty = false;
                l1->state = CohState::E;
            } else {
                any_dirty_left = true;
            }
        }
        if (line.dirty) {
            if (line.oid < cur) {
                collect(line.addr, line.oid,
                        line.sealed() ? line.seq
                                      : rig.backing.lineSeq(line.addr),
                        line.sealedData.get());
                line.dirty = false;
                line.sealedData.reset();
            } else {
                any_dirty_left = true;
            }
        }
        if (!line.dirty) {
            for (unsigned i = 0; i < per_vd; ++i) {
                if (!L2Cache::hasSharer(line, i))
                    continue;
                const CacheLine *l1 =
                    hier.l1(vd * per_vd + i).array().probe(line.addr);
                if (l1 && l1->oid > line.oid) {
                    line.oid = l1->oid;
                    line.seq = l1->seq;
                }
            }
        }
        if (!any_dirty_left && line.state == CohState::M)
            line.state = CohState::E;
    });
    return scan;
}

/** First slot whose (addr, state, dirty, oid, seq, sealed) differs
 *  between two arrays of the same geometry, or "" if none. */
std::string
firstLineDiff(CacheArray &a, CacheArray &b)
{
    auto key = [](const CacheLine &l) {
        return std::make_tuple(l.addr, l.state, l.dirty, l.oid, l.seq,
                               l.sealed());
    };
    for (unsigned set = 0; set < a.numSets(); ++set)
        for (unsigned w = 0; w < a.numWays(); ++w)
            if (key(a.setBase(set)[w]) != key(b.setBase(set)[w]))
                return "set " + std::to_string(set) + " way " +
                       std::to_string(w);
    return "";
}

/**
 * The walk-set scan against the full scan it replaced: two
 * hierarchies see identical random traffic and epoch advances; one
 * is walked by tagWalkScan, the other by fullScanWalk. After every
 * walk the collected versions (in order), min-ver, the scanned-line
 * count and every L1 and L2 line must agree.
 */
TEST_P(VersionProtocolProperty, WalkSetMatchesFullScan)
{
    WalkRig fast, full;
    Rng rng(GetParam() * 16127 + 3);
    unsigned walks = 0, collected = 0;
    for (int i = 0; i < 30000; ++i) {
        unsigned core = static_cast<unsigned>(rng.below(8));
        unsigned vd = core / 2;
        Addr a = 0x200000 + lineAlign(rng.below(600) * 64);
        if (rng.chance(0.01)) {
            EpochWide step = 1 + rng.below(3);
            fast.ctrl.epochs[vd] += step;
            full.ctrl.epochs[vd] += step;
        }
        if (rng.chance(0.02)) {
            unsigned wvd = static_cast<unsigned>(rng.below(4));
            auto got = fast.hier.tagWalkScan(wvd);
            auto want = fullScanWalk(full, wvd);
            ++walks;
            collected += static_cast<unsigned>(want.versions.size());
            ASSERT_EQ(got.minVer, want.minVer) << "op " << i;
            ASSERT_EQ(got.linesScanned, want.linesScanned) << "op " << i;
            ASSERT_EQ(got.versions.size(), want.versions.size())
                << "op " << i;
            for (std::size_t k = 0; k < got.versions.size(); ++k) {
                const auto &g = got.versions[k];
                const auto &w = want.versions[k];
                ASSERT_EQ(std::make_tuple(g.addr, g.oid, g.seq,
                                          g.content.digest()),
                          std::make_tuple(w.addr, w.oid, w.seq,
                                          w.content.digest()))
                    << "op " << i << " version " << k;
            }
            for (unsigned c = 0; c < 8; ++c)
                ASSERT_EQ(firstLineDiff(fast.hier.l1(c).array(),
                                        full.hier.l1(c).array()),
                          "")
                    << "L1 " << c << " after the walk at op " << i;
            for (unsigned v = 0; v < 4; ++v)
                ASSERT_EQ(firstLineDiff(fast.hier.l2(v).array(),
                                        full.hier.l2(v).array()),
                          "")
                    << "L2 " << v << " after the walk at op " << i;
            for (const auto &v : got.versions)
                fast.ctrl.acceptVersion(wvd, v.addr, v.oid, v.seq,
                                        v.content, EvictReason::TagWalk,
                                        0);
            for (const auto &v : want.versions)
                full.ctrl.acceptVersion(wvd, v.addr, v.oid, v.seq,
                                        v.content, EvictReason::TagWalk,
                                        0);
        }
        bool is_store = rng.chance(0.45);
        for (WalkRig *rig : {&fast, &full}) {
            if (is_store)
                rig->hier.store(core, a, nullptr, 8, 0);
            else
                rig->hier.load(core, a, 0);
        }
    }
    // Every version that left either hierarchy, walked or evicted.
    EXPECT_EQ(fast.ctrl.epochs, full.ctrl.epochs);
    ASSERT_EQ(fast.ctrl.accepted.size(), full.ctrl.accepted.size());
    for (std::size_t k = 0; k < fast.ctrl.accepted.size(); ++k) {
        const auto &g = fast.ctrl.accepted[k];
        const auto &w = full.ctrl.accepted[k];
        ASSERT_EQ(std::make_tuple(g.addr, g.oid, g.seq, g.digest, g.why),
                  std::make_tuple(w.addr, w.oid, w.seq, w.digest, w.why))
            << "accepted version " << k;
    }
    EXPECT_GT(walks, 400u);
    EXPECT_GT(collected, 100u) << "walks collected real versions";
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionProtocolProperty,
                         ::testing::Range(1, 6));

} // namespace
} // namespace nvo
