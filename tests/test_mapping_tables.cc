/**
 * @file
 * Per-epoch overlay table and master mapping table tests
 * (paper Sec. V-C, Fig. 10).
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "nvoverlay/epoch_table.hh"
#include "nvoverlay/master_table.hh"
#include "nvoverlay/page_pool.hh"

namespace nvo
{
namespace
{

constexpr Addr poolBase = 1ull << 40;

LineData
lineOf(std::uint8_t fill)
{
    LineData d;
    d.bytes.fill(fill);
    return d;
}

class EpochTableTest : public ::testing::Test
{
  protected:
    EpochTableTest() : pool(poolBase, 256 * pageBytes)
    {
        EpochTable::Params p;
        p.initLines = 4;
        p.growthFactor = 4;
        table = std::make_unique<EpochTable>(7, pool, p);
    }

    /** Insert into @p t and total the traffic it reports, as the OMC
     *  issues it: one 64 B data write per insert the pool took (a
     *  stale re-insert included), one 64 B copy per relocated slot,
     *  and the header metadata. False: the pool is exhausted. */
    bool
    insert(EpochTable &t, Addr line, SeqNo seq, const LineData &content)
    {
        const EpochTable::Inserted ins = t.insert(line, seq, content);
        if (ins.nvmAddr == invalidAddr)
            return false;
        dataBytes += lineBytes;
        relocBytes += ins.relocated * lineBytes;
        metaBytes += ins.metaBytes;
        return true;
    }

    bool
    insert(Addr line, SeqNo seq, const LineData &content)
    {
        return insert(*table, line, seq, content);
    }

    PagePool pool;
    std::unique_ptr<EpochTable> table;
    std::uint64_t dataBytes = 0, relocBytes = 0, metaBytes = 0;
};

TEST_F(EpochTableTest, InsertLookupRoundTrip)
{
    ASSERT_TRUE(insert(0x1000, 1, lineOf(0xaa)));
    LineData out;
    ASSERT_TRUE(table->readVersion(0x1000, out));
    EXPECT_EQ(out, lineOf(0xaa));
    EXPECT_FALSE(table->readVersion(0x1040, out));
    EXPECT_EQ(table->versionCount(), 1u);
    EXPECT_EQ(dataBytes, 64u);
}

TEST_F(EpochTableTest, SparsePageStartsSmall)
{
    insert(0x1000, 1, lineOf(1));
    EXPECT_EQ(pool.bytesAllocated(), 4u * lineBytes)
        << "initial sub-page is 4 lines, not a full page";
}

TEST_F(EpochTableTest, GrowthRelocatesCompactly)
{
    // Fill 5 lines of one page: 4-line sub-page grows to 16.
    for (unsigned i = 0; i < 5; ++i)
        insert(0x2000 + i * 64, i, lineOf(i + 1));
    EXPECT_EQ(relocBytes, 4u * lineBytes) << "4 lines relocated";
    EXPECT_EQ(pool.bytesAllocated(), 16u * lineBytes);
    for (unsigned i = 0; i < 5; ++i) {
        LineData out;
        ASSERT_TRUE(table->readVersion(0x2000 + i * 64, out));
        EXPECT_EQ(out, lineOf(i + 1)) << "line " << i;
    }
}

TEST_F(EpochTableTest, InsertReportsItsTraffic)
{
    // A fresh page: a 4-line sub-page whose header costs 16 B.
    EpochTable::Inserted ins = table->insert(0x2000, 1, lineOf(1));
    ASSERT_NE(ins.grownTo, invalidAddr);
    EXPECT_EQ(ins.nvmAddr, ins.grownTo);
    EXPECT_EQ(ins.relocated, 0u);
    EXPECT_EQ(ins.metaBytes, 16u);
    const Addr first = ins.grownTo;
    for (unsigned i = 1; i < 4; ++i)
        EXPECT_EQ(table->insert(0x2000 + i * 64, 1, lineOf(1)).grownTo,
                  invalidAddr);
    // The fifth line grows the page: slots 0-3 move to a 16-line
    // sub-page and the new version takes slot 4 there.
    ins = table->insert(0x2100, 1, lineOf(5));
    ASSERT_NE(ins.grownTo, invalidAddr);
    EXPECT_NE(ins.grownTo, first);
    EXPECT_EQ(ins.relocated, 4u);
    EXPECT_EQ(ins.nvmAddr, ins.grownTo + 4 * lineBytes);
    EXPECT_EQ(ins.metaBytes, 16u);
    EXPECT_EQ(table->pageEntry(0x2000)->subPage, ins.grownTo);
}

TEST_F(EpochTableTest, SameEpochOverwriteKeepsNewest)
{
    insert(0x1000, 10, lineOf(1));
    insert(0x1000, 20, lineOf(2));
    LineData out;
    table->readVersion(0x1000, out);
    EXPECT_EQ(out, lineOf(2));
    // A stale (lower-seq) write costs a device write but does not
    // clobber newer content.
    insert(0x1000, 15, lineOf(3));
    table->readVersion(0x1000, out);
    EXPECT_EQ(out, lineOf(2));
    EXPECT_EQ(table->versionCount(), 1u);
    EXPECT_EQ(dataBytes, 3u * 64);

    // A grow keeps each slot's seqno: the stale write still loses once
    // the page has grown 4 -> 16 -> 64 lines.
    constexpr Addr page = 0x4000;
    insert(page, 20, lineOf(2));
    unsigned filled = 1;
    for (unsigned cap : {4u, 16u, 64u}) {
        for (; filled < cap; ++filled)
            insert(page + filled * lineBytes, 1, lineOf(9));
        ASSERT_EQ(table->pageEntry(page)->capacity, cap);
        insert(page, 15, lineOf(3));
        table->readVersion(page, out);
        EXPECT_EQ(out, lineOf(2)) << "sub-page of " << cap << " lines";
    }
}

// A page entry keeps one seqno per slot of its sub-page, not 64: with
// thousands of epoch tables alive, its size is most of a table's host
// memory.
static_assert(sizeof(EpochTable::PageEntry) <= 112,
              "PageEntry outgrew its 112 B (the header slot id fits "
              "its padding)");

TEST_F(EpochTableTest, HeaderDescribesSubPage)
{
    insert(0x3000, 1, lineOf(9));
    insert(0x3040, 2, lineOf(8));
    const auto *pe = table->pageEntry(0x3000);
    ASSERT_NE(pe, nullptr);
    const auto *hdr = pool.header(pe->header);
    EXPECT_EQ(pool.headerSubPage(pe->header), pe->subPage);
    ASSERT_NE(hdr, nullptr);
    EXPECT_EQ(hdr->srcPage, 0x3000u);
    EXPECT_EQ(hdr->epoch, 7u);
    EXPECT_EQ(hdr->usedLines, 2u);
    EXPECT_EQ(hdr->slotLine[0], lineInPage(0x3000));
    EXPECT_EQ(hdr->slotLine[1], lineInPage(0x3040));
    EXPECT_GT(metaBytes, 0u);
}

TEST_F(EpochTableTest, ForEachVersionVisitsAll)
{
    std::map<Addr, bool> want;
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        Addr a = lineAlign(rng.below(1 << 20));
        insert(a, i, lineOf(1));
        want[a] = true;
    }
    std::map<Addr, bool> got;
    table->forEachVersion(
        [&](Addr line, Addr nvm, const EpochTable::PageEntry &pe) {
            EXPECT_EQ(pe.pageAddr, pageAlign(line));
            got[line] = true;
            EXPECT_NE(nvm, invalidAddr);
        });
    EXPECT_EQ(got, want);
    EXPECT_EQ(table->versionCount(), want.size());
}

TEST_F(EpochTableTest, PoolExhaustionReturnsFalse)
{
    PagePool tiny(poolBase + (1ull << 30), pageBytes);
    EpochTable::Params p;
    p.initLines = 64;
    EpochTable t(1, tiny, p);
    EXPECT_TRUE(insert(t, 0x0, 1, lineOf(1)));
    const std::uint64_t data_before = dataBytes, meta_before = metaBytes;
    EXPECT_FALSE(insert(t, 0x1000, 2, lineOf(2)))
        << "second full page does not fit";
    EXPECT_EQ(dataBytes, data_before) << "a failed insert writes nothing";
    EXPECT_EQ(metaBytes, meta_before);
}

TEST_F(EpochTableTest, TableBytesGrowWithFootprint)
{
    // The modelled 4-level radix: 4 KiB nodes, 16 B leaf descriptors.
    constexpr std::uint64_t node = 4096, leaf = 16;
    std::uint64_t bytes = node;   // the root
    EXPECT_EQ(table->tableBytes(), bytes);
    insert(0x1000, 1, lineOf(1));
    bytes += 3 * node + leaf;     // a node at every level below the root
    EXPECT_EQ(table->tableBytes(), bytes);
    insert(0x2000, 2, lineOf(1));
    bytes += leaf;                // same 2 MiB region
    EXPECT_EQ(table->tableBytes(), bytes);
    insert(0x2000, 3, lineOf(2));
    insert(0x2040, 4, lineOf(2));
    EXPECT_EQ(table->tableBytes(), bytes) << "pages already mapped";
    insert(0x200000, 5, lineOf(1));
    bytes += node + leaf;         // same 1 GiB, new 2 MiB region
    EXPECT_EQ(table->tableBytes(), bytes);
    insert(0x40000000, 6, lineOf(1));
    bytes += 2 * node + leaf;     // same 512 GiB, new 1 GiB region
    EXPECT_EQ(table->tableBytes(), bytes);
    insert(0x8000000000, 7, lineOf(1));
    bytes += 3 * node + leaf;     // new 512 GiB region
    EXPECT_EQ(table->tableBytes(), bytes);
}

TEST_F(EpochTableTest, FootprintCounterFollowsTableLifetime)
{
    std::uint64_t footprint = 0;
    {
        EpochTable t(3, pool, EpochTable::Params{}, &footprint);
        EXPECT_EQ(footprint, t.tableBytes());
        for (Addr a : {0x1000ull, 0x1040ull, 0x3000ull, 0x200000ull,
                       0x8000000000ull})
            ASSERT_TRUE(insert(t, a, 1, lineOf(1)));
        EXPECT_EQ(footprint, t.tableBytes());
        EpochTable other(4, pool, EpochTable::Params{}, &footprint);
        insert(other, 0x5000, 1, lineOf(1));
        EXPECT_EQ(footprint, t.tableBytes() + other.tableBytes());
    }
    EXPECT_EQ(footprint, 0u) << "destroyed tables subtract themselves";
}

TEST(EpochTableDeathTest, PageAddressBeyond48BitsIsRejected)
{
    PagePool pool(poolBase, 16 * pageBytes);
    EpochTable t(1, pool, EpochTable::Params{});
    // Bit 48 lies outside the modelled radix key (bits 47..12): the
    // hardware table would alias the page onto page 0x1000.
    EXPECT_DEATH(t.insert((1ull << 48) | 0x1000, 1, lineOf(1)),
                 "48-bit table key");
}

TEST(MasterTable, InsertLookupReplace)
{
    MasterTable mt;
    EXPECT_EQ(mt.lookup(0x1000), nullptr);
    auto replaced = mt.insert(tenant::keyOf(0x1000), poolBase, 3).replaced;
    EXPECT_FALSE(replaced.has_value());
    const auto *e = mt.lookup(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->nvmAddr, poolBase);
    EXPECT_EQ(e->epoch, 3u);

    auto old = mt.insert(tenant::keyOf(0x1000), poolBase + 64, 5).replaced;
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(old->epoch, 3u);
    EXPECT_EQ(mt.lookup(0x1000)->epoch, 5u);
    EXPECT_EQ(mt.mappedLines(), 1u);
}

TEST(MasterTable, MetaWritesPerInsert)
{
    MasterTable mt;
    // First insert creates 3 inner pointers + leaf pointer + entry.
    EXPECT_EQ(mt.insert(tenant::keyOf(0x1000), poolBase, 1).metaBytes,
              5u * 8);
    // Same leaf: the entry alone.
    EXPECT_EQ(mt.insert(tenant::keyOf(0x1040), poolBase + 64, 1).metaBytes,
              8u);
}

TEST(MasterTable, NodeBytesMatchStructure)
{
    MasterTable mt;
    std::uint64_t root_only = mt.nodeBytes();
    EXPECT_EQ(root_only, 512u * 8);
    mt.insert(tenant::keyOf(0x1000), poolBase, 1);
    // +3 inner nodes +1 leaf node (64 entries x 8 B).
    EXPECT_EQ(mt.nodeBytes(), root_only + 3 * 512 * 8 + 64 * 8);
    // Fig. 13 lower bound: one full page of lines maps at 12.5 %.
    for (unsigned i = 0; i < 64; ++i)
        mt.insert(tenant::keyOf(0x1000 + i * 64), poolBase + i * 64, 1);
    double ratio = static_cast<double>(64 * 8) / (64 * 64);
    EXPECT_DOUBLE_EQ(ratio, 0.125);
}

TEST(MasterTable, ForEachEnumeratesMappings)
{
    MasterTable mt;
    Rng rng(17);
    std::map<Addr, EpochWide> want;
    for (int i = 0; i < 500; ++i) {
        Addr a = lineAlign(rng.below(1ull << 30));
        EpochWide e = 1 + rng.below(9);
        mt.insert(tenant::keyOf(a), poolBase + i * 64, e);
        want[a] = e;
    }
    std::map<Addr, EpochWide> got;
    mt.forEach([&](Addr a, const MasterTable::Entry &e) {
        got[a] = e.epoch;
    });
    EXPECT_EQ(got, want);
    EXPECT_EQ(mt.mappedLines(), want.size());
}

} // namespace
} // namespace nvo
