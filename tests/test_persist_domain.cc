/**
 * @file
 * Persistence-domain model: the undo journal that gives the simulator
 * a real durable/volatile boundary (barrier commits, crash truncates).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "mem/nvm_model.hh"
#include "mem/persist_domain.hh"
#include "nvoverlay/master_table.hh"
#include "nvoverlay/page_pool.hh"

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

constexpr Addr poolBase = 1ull << 40;

/** A header mapping @p capacity lines of page @p src_page. */
PagePool::SubPageHeader
headerOf(Addr src_page, unsigned capacity)
{
    PagePool::SubPageHeader hdr;
    hdr.srcPage = src_page;
    hdr.capacityLines = static_cast<std::uint8_t>(capacity);
    return hdr;
}

TEST(PersistDomain, DisarmedStagesNothing)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    PersistDomain &pd = nvm.persist();
    PagePool pool(poolBase, 1ull << 20);
    MasterTable mt;
    pool.attachPersist(&pd);
    mt.attachPersist(&pd);
    ASSERT_FALSE(pd.armed());

    Addr sp = pool.allocLines(4, 0);
    ASSERT_NE(sp, invalidAddr);
    pool.writeLine(sp, lineOf(0xAA));
    const PagePool::HeaderId id =
        pool.setHeader(PagePool::noHeader, sp, headerOf(0x1000, 4));
    pool.fillSlot(id, 0, 0);
    mt.insert(tenant::keyOf(0x1000), sp, 1);
    EXPECT_EQ(pd.inFlight(), 0u);
    EXPECT_EQ(pd.stagedTotal(), 0u);

    // Nothing was staged, so a crash unwinds nothing: every mutation
    // counted as durable the moment it ran.
    pd.truncateToDurable();
    LineData out;
    pool.readLine(sp, out);
    EXPECT_EQ(out, lineOf(0xAA));
    ASSERT_NE(pool.header(id), nullptr);
    EXPECT_EQ(pool.header(id)->usedLines, 1);
    EXPECT_EQ(pool.bytesAllocated(), 4u * lineBytes);
    ASSERT_NE(mt.lookup(0x1000), nullptr);
    EXPECT_EQ(mt.lookup(0x1000)->nvmAddr, sp);
}

TEST(PersistDomain, TruncateUnwindsNewestFirst)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    PersistDomain &pd = nvm.persist();
    PagePool pool(poolBase, 1ull << 20);
    MasterTable mt;
    pool.attachPersist(&pd);
    mt.attachPersist(&pd);
    pd.arm();

    Addr sp = pool.allocLines(4, 0);
    pool.writeLine(sp, lineOf(1));
    mt.insert(tenant::keyOf(0x1000), sp, 1);
    pd.barrier();

    // Three in-flight writes of one line and two of one master entry.
    pool.writeLine(sp, lineOf(2));
    pool.writeLine(sp, lineOf(3));
    pool.writeLine(sp, lineOf(4));
    mt.insert(tenant::keyOf(0x1000), sp + lineBytes, 2);
    mt.insert(tenant::keyOf(0x1000), sp + 2 * lineBytes, 3);
    EXPECT_EQ(pd.inFlight(), 5u);
    EXPECT_EQ(pd.stagedByKind(PersistDomain::Kind::PoolData), 4u);
    EXPECT_EQ(pd.stagedByKind(PersistDomain::Kind::Master), 3u);

    pd.truncateToDurable();
    // Each undo restores the value its own mutation overwrote, so only
    // a newest-first unwind lands on the fenced values; oldest first
    // would leave the line at 3 and the entry at epoch 2.
    LineData out;
    pool.readLine(sp, out);
    EXPECT_EQ(out, lineOf(1));
    const MasterTable::Entry *e = mt.lookup(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->nvmAddr, sp);
    EXPECT_EQ(e->epoch, 1u);
    EXPECT_EQ(pd.inFlight(), 0u);
    EXPECT_EQ(pd.truncatedTotal(), 5u);
}

TEST(PersistDomain, BarrierMakesRecordsDurable)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    PersistDomain &pd = nvm.persist();
    PagePool pool(poolBase, 1ull << 20);
    pool.attachPersist(&pd);
    pd.arm();

    // A fresh page from the bitmap, split down to a 4-line block:
    // one bitmap record and one allocator record.
    Addr sp = pool.allocLines(4, 0);
    ASSERT_NE(sp, invalidAddr);
    EXPECT_EQ(pd.inFlight(), 2u);
    pd.barrier();
    EXPECT_EQ(pd.inFlight(), 0u);
    EXPECT_EQ(pd.durableTotal(), 2u);
    EXPECT_EQ(pd.barriers(), 1u);

    pd.truncateToDurable();
    EXPECT_EQ(pd.truncatedTotal(), 0u);
    EXPECT_EQ(pool.bytesAllocated(), 4u * lineBytes)
        << "fenced records must survive the crash";
    EXPECT_EQ(pool.pagesInUse(), 1u);
    EXPECT_NE(pool.allocLines(4, 0), sp)
        << "the fenced block must stay allocated";
}

TEST(PersistDomain, PagePoolCrashRestoresDurablePrefix)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    PersistDomain &pd = nvm.persist();
    PagePool pool(poolBase, 1ull << 20);
    pool.attachPersist(&pd);
    pd.arm();

    // Durable prefix: one sub-page with known content and header.
    Addr sp = pool.allocLines(4, 0);
    ASSERT_NE(sp, invalidAddr);
    pool.writeLine(sp, lineOf(0xAA));
    PagePool::SubPageHeader hdr;
    hdr.srcPage = 0x1000;
    hdr.capacityLines = 4;
    hdr.usedLines = 1;
    const PagePool::HeaderId id = pool.setHeader(PagePool::noHeader, sp, hdr);
    pd.barrier();
    std::uint64_t durable_bytes = pool.bytesAllocated();
    std::uint64_t durable_pages = pool.pagesInUse();

    // In-flight suffix: overwrite, grow the header, drop it and set it
    // again (its slot comes back off the free list) and fill a slot,
    // allocate more with a header in a new slab slot, free the
    // original block.
    pool.writeLine(sp, lineOf(0xBB));
    PagePool::SubPageHeader grown = hdr;
    grown.usedLines = 3;
    pool.setHeader(id, sp, grown);
    pool.dropHeader(id);
    const PagePool::HeaderId again =
        pool.setHeader(PagePool::noHeader, sp, grown);
    EXPECT_EQ(again, id) << "a freed slab slot is reused first";
    pool.fillSlot(again, 3, 7);
    Addr sp2 = pool.allocLines(8, 0);
    ASSERT_NE(sp2, invalidAddr);
    const PagePool::HeaderId id2 =
        pool.setHeader(PagePool::noHeader, sp2, headerOf(0x2000, 8));
    EXPECT_NE(id2, id);
    pool.writeLine(sp2, lineOf(0xCC));
    pool.freeLines(sp, 4, 0);
    pool.dropHeader(again);
    ASSERT_GT(pd.inFlight(), 0u);

    pd.truncateToDurable();

    LineData out;
    pool.readLine(sp, out);
    EXPECT_EQ(out, lineOf(0xAA));
    const PagePool::SubPageHeader *h = pool.header(id);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(pool.headerSubPage(id), sp);
    EXPECT_EQ(h->srcPage, 0x1000u);
    EXPECT_EQ(h->usedLines, 1);
    EXPECT_EQ(h->slotLine[3], 0);
    EXPECT_EQ(pool.header(id2), nullptr) << "sp2's header never persisted";
    EXPECT_EQ(pool.bytesAllocated(), durable_bytes);
    EXPECT_EQ(pool.pagesInUse(), durable_pages);
    pool.audit();

    // The slab is back to its durable shape: the next header takes
    // the slot sp2's did, and neither slot leaked nor doubled.
    const Addr sp3 = pool.allocLines(8, 0);
    ASSERT_NE(sp3, invalidAddr);
    EXPECT_EQ(pool.setHeader(PagePool::noHeader, sp3, headerOf(0x3000, 8)),
              id2);
    pool.audit();
}

TEST(PersistDomain, PagePoolAllocReuseUnwindsCleanly)
{
    // free + realloc of the same block in the in-flight suffix: the
    // reverse unwind must first return the block (undoing the alloc)
    // and then reclaim it (undoing the free), landing back on the
    // durable allocation.
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    PersistDomain &pd = nvm.persist();
    PagePool pool(poolBase, 1ull << 20);
    pool.attachPersist(&pd);
    pd.arm();

    Addr sp = pool.allocLines(4, 0);
    pool.writeLine(sp, lineOf(0x11));
    pd.barrier();
    std::uint64_t durable_bytes = pool.bytesAllocated();

    pool.freeLines(sp, 4, 0);
    Addr again = pool.allocLines(4, 0);
    EXPECT_EQ(again, sp) << "buddy free list should hand back the "
                            "just-freed block";
    pool.writeLine(again, lineOf(0x22));

    pd.truncateToDurable();
    LineData out;
    pool.readLine(sp, out);
    EXPECT_EQ(out, lineOf(0x11));
    EXPECT_EQ(pool.bytesAllocated(), durable_bytes);
    pool.audit();

    // The block is still allocated: a fresh alloc must not alias it.
    Addr other = pool.allocLines(4, 0);
    EXPECT_NE(other, sp);
}

/**
 * A page pool and a master table journaled into one armed domain,
 * driven by a seeded stream of random mutations and barriers. The
 * stream depends only on the seed and the structures' state, so two
 * fuzzers with one seed run the same first n operations.
 */
class JournalFuzz
{
  public:
    explicit JournalFuzz(std::uint64_t seed)
        : nvm(NvmModel::Params{}, &stats),
          pool(poolBase, 128 * pageBytes), rng(seed),
          barrierOdds(rng.chance(0.5) ? 16 : 512)
    {
        pool.attachPersist(&nvm.persist());
        master.attachPersist(&nvm.persist());
        nvm.persist().arm();
    }

    PersistDomain &pd() { return nvm.persist(); }

    /** Run the next @p n operations. */
    void
    run(std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            step();
    }

    RunStats stats;
    NvmModel nvm;
    PagePool pool;
    MasterTable master;
    /** Operations run so far, and how many had run at the last
     *  barrier (the durable prefix). */
    std::size_t ops = 0;
    std::size_t durableOps = 0;
    /** Every image line and master key any operation wrote. */
    std::set<Addr> lines;
    std::set<Addr> keys;

  private:
    struct Block
    {
        Addr addr;
        unsigned lines;
        tenant::Asid asid;
        PagePool::HeaderId header = PagePool::noHeader;
    };

    void
    step()
    {
        ++ops;
        const std::uint64_t op = rng.below(100);
        if (rng.below(barrierOdds) == 0) {
            nvm.persist().barrier();
            durableOps = ops;
        } else if (op < 14) {
            const unsigned size = rng.chance(0.4)
                                      ? linesPerPage
                                      : 1u << rng.below(6);
            const tenant::Asid asid =
                static_cast<tenant::Asid>(rng.below(3));
            const Addr addr = pool.allocLines(size, asid);
            if (addr != invalidAddr)
                live.push_back({addr, size, asid, PagePool::noHeader});
        } else if (op < 16) {
            pool.extend(1 + rng.below(4));
        } else if (live.empty()) {
            return;
        } else if (op < 24) {
            // A reclaim: the header goes before the storage.
            const std::size_t i = rng.below(live.size());
            if (live[i].header != PagePool::noHeader)
                pool.dropHeader(live[i].header);
            pool.freeLines(live[i].addr, live[i].lines, live[i].asid);
            live[i] = live.back();
            live.pop_back();
        } else if (op < 50) {
            const Block &b = pick();
            const Addr line =
                b.addr + rng.below(b.lines) * lineBytes;
            LineData d;
            for (auto &byte : d.bytes)
                byte = static_cast<std::uint8_t>(rng.next());
            pool.writeLine(line, d);
            lines.insert(line);
        } else if (op < 58) {
            Block &b = pick();
            PagePool::SubPageHeader hdr;
            hdr.srcPage = rng.below(1024) * pageBytes;
            hdr.epoch = rng.below(1000);
            hdr.capacityLines = static_cast<std::uint8_t>(b.lines);
            hdr.usedLines = static_cast<std::uint8_t>(
                rng.below(b.lines + 1));
            for (auto &li : hdr.slotLine)
                li = static_cast<std::uint8_t>(rng.below(linesPerPage));
            b.header = pool.setHeader(b.header, b.addr, hdr);
        } else if (op < 72) {
            const Block &b = pick();
            const auto slot = static_cast<unsigned>(rng.below(b.lines));
            const auto li = static_cast<unsigned>(rng.below(linesPerPage));
            if (b.header != PagePool::noHeader)
                pool.fillSlot(b.header, slot, li);
        } else if (op < 76) {
            Block &b = pick();
            if (b.header != PagePool::noHeader)
                pool.dropHeader(b.header);
            b.header = PagePool::noHeader;
        } else {
            // masterInsert's path: a tenant-tagged key into the
            // attached master.
            const tenant::Asid asid =
                static_cast<tenant::Asid>(rng.below(3));
            const Addr key =
                tenant::tag(asid, rng.below(4 * linesPerPage) *
                                      lineBytes);
            const Block &b = pick();
            master.insert(tenant::keyOf(key),
                          b.addr + rng.below(b.lines) * lineBytes,
                          rng.below(1000));
            keys.insert(key);
        }
    }

    Block &pick() { return live[rng.below(live.size())]; }

    Rng rng;
    const std::uint64_t barrierOdds;
    std::vector<Block> live;
};

/** What a crash must restore: the durable structures' whole state,
 *  and the next allocations and header slots, which expose the free
 *  lists and the header slab's free stack. */
struct JournalState
{
    std::vector<LineData> lines;
    std::vector<std::tuple<Addr, Addr, EpochWide, unsigned, unsigned,
                           std::array<std::uint8_t, linesPerPage>>>
        headers;
    std::uint64_t totalPages, pagesInUse, bytesAllocated;
    std::map<tenant::Asid, std::uint64_t> asidLines;
    std::map<Addr, std::pair<Addr, EpochWide>> master;
    std::uint64_t mapped;
    std::vector<Addr> nextAllocs;
    std::vector<PagePool::HeaderId> nextHeaders;
};

JournalState
snapshot(JournalFuzz &d, const std::set<Addr> &lines,
         const std::set<Addr> &keys)
{
    JournalState st;
    for (Addr line : lines) {
        st.lines.emplace_back();
        d.pool.readLine(line, st.lines.back());
    }
    d.pool.forEachHeader(
        [&st](PagePool::HeaderId, Addr sp, const PagePool::SubPageHeader &h) {
            st.headers.emplace_back(sp, h.srcPage, h.epoch,
                                    h.capacityLines, h.usedLines,
                                    h.slotLine);
        });
    std::sort(st.headers.begin(), st.headers.end());
    st.totalPages = d.pool.totalPages();
    st.pagesInUse = d.pool.pagesInUse();
    st.bytesAllocated = d.pool.bytesAllocated();
    d.pool.forEachAsidLines([&st](tenant::Asid asid, std::uint64_t n) {
        st.asidLines[asid] = n;
    });
    for (Addr key : keys)
        if (const MasterTable::Entry *e = d.master.lookup(key))
            st.master[key] = {e->nvmAddr, e->epoch};
    st.mapped = d.master.mappedLines();
    for (unsigned i = 0; i < 3 * (PagePool::maxOrder + 1); ++i)
        st.nextAllocs.push_back(
            d.pool.allocLines(1u << (i % (PagePool::maxOrder + 1)), 0));
    for (Addr a : st.nextAllocs)
        if (a != invalidAddr)
            st.nextHeaders.push_back(d.pool.setHeader(
                PagePool::noHeader, a, PagePool::SubPageHeader{}));
    return st;
}

TEST(PersistDomain, RandomCrashRestoresTheLastBarrier)
{
    // Crash a random operation stream at a random point, then compare
    // with a replay of only its durable prefix.
    std::uint64_t unwound = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng pick(seed * 7919);
        JournalFuzz crashed(seed);
        crashed.run(400 + pick.below(3000));
        unwound += crashed.pd().inFlight();
        crashed.pd().truncateToDurable();
        crashed.pool.audit();
        crashed.master.audit();

        JournalFuzz replay(seed);
        replay.run(crashed.durableOps);
        ASSERT_EQ(replay.pd().inFlight(), 0u)
            << "the replay ends on its last barrier";

        const JournalState got =
            snapshot(crashed, crashed.lines, crashed.keys);
        const JournalState want =
            snapshot(replay, crashed.lines, crashed.keys);
        EXPECT_EQ(got.lines, want.lines);
        EXPECT_EQ(got.headers, want.headers);
        EXPECT_EQ(got.totalPages, want.totalPages);
        EXPECT_EQ(got.pagesInUse, want.pagesInUse);
        EXPECT_EQ(got.bytesAllocated, want.bytesAllocated);
        EXPECT_EQ(got.asidLines, want.asidLines);
        EXPECT_EQ(got.master, want.master);
        EXPECT_EQ(got.mapped, want.mapped);
        EXPECT_EQ(got.nextAllocs, want.nextAllocs);
        EXPECT_EQ(got.nextHeaders, want.nextHeaders);
    }
    EXPECT_GT(unwound, 1000u) << "the crashes must cut real suffixes";
}

TEST(MasterTableErase, RemovesOnlyTheTargetLine)
{
    MasterTable mt;
    mt.insert(tenant::keyOf(0x40), 0xF000, 3);
    mt.insert(tenant::keyOf(0x80), 0xF040, 4);
    EXPECT_EQ(mt.mappedLines(), 2u);
    mt.erase(tenant::keyOf(0x40));
    EXPECT_EQ(mt.lookup(0x40), nullptr);
    ASSERT_NE(mt.lookup(0x80), nullptr);
    EXPECT_EQ(mt.lookup(0x80)->epoch, 4u);
    EXPECT_EQ(mt.mappedLines(), 1u);
    mt.erase(tenant::keyOf(0x4000));   // unmapped: no-op
    EXPECT_EQ(mt.mappedLines(), 1u);
}

} // namespace
} // namespace nvo
