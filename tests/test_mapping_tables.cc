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
        sinks.data = [this](Addr, std::uint32_t b) { dataBytes += b; };
        sinks.reloc = [this](Addr, std::uint32_t b) {
            relocBytes += b;
        };
        sinks.meta = [this](std::uint32_t b) { metaBytes += b; };
    }

    PagePool pool;
    std::unique_ptr<EpochTable> table;
    EpochTable::Sinks sinks;
    std::uint64_t dataBytes = 0, relocBytes = 0, metaBytes = 0;
};

TEST_F(EpochTableTest, InsertLookupRoundTrip)
{
    ASSERT_TRUE(table->insert(0x1000, 1, lineOf(0xaa), sinks));
    LineData out;
    ASSERT_TRUE(table->readVersion(0x1000, out));
    EXPECT_EQ(out, lineOf(0xaa));
    EXPECT_FALSE(table->readVersion(0x1040, out));
    EXPECT_EQ(table->versionCount(), 1u);
    EXPECT_EQ(dataBytes, 64u);
}

TEST_F(EpochTableTest, SparsePageStartsSmall)
{
    table->insert(0x1000, 1, lineOf(1), sinks);
    EXPECT_EQ(pool.bytesAllocated(), 4u * lineBytes)
        << "initial sub-page is 4 lines, not a full page";
}

TEST_F(EpochTableTest, GrowthRelocatesCompactly)
{
    // Fill 5 lines of one page: 4-line sub-page grows to 16.
    for (unsigned i = 0; i < 5; ++i)
        table->insert(0x2000 + i * 64, i, lineOf(i + 1), sinks);
    EXPECT_EQ(relocBytes, 4u * lineBytes) << "4 lines relocated";
    EXPECT_EQ(pool.bytesAllocated(), 16u * lineBytes);
    for (unsigned i = 0; i < 5; ++i) {
        LineData out;
        ASSERT_TRUE(table->readVersion(0x2000 + i * 64, out));
        EXPECT_EQ(out, lineOf(i + 1)) << "line " << i;
    }
}

TEST_F(EpochTableTest, SameEpochOverwriteKeepsNewest)
{
    table->insert(0x1000, 10, lineOf(1), sinks);
    table->insert(0x1000, 20, lineOf(2), sinks);
    LineData out;
    table->readVersion(0x1000, out);
    EXPECT_EQ(out, lineOf(2));
    // A stale (lower-seq) write costs a device write but does not
    // clobber newer content.
    table->insert(0x1000, 15, lineOf(3), sinks);
    table->readVersion(0x1000, out);
    EXPECT_EQ(out, lineOf(2));
    EXPECT_EQ(table->versionCount(), 1u);
    EXPECT_EQ(dataBytes, 3u * 64);
}

TEST_F(EpochTableTest, HeaderDescribesSubPage)
{
    table->insert(0x3000, 1, lineOf(9), sinks);
    table->insert(0x3040, 2, lineOf(8), sinks);
    const auto *pe = table->pageEntry(0x3000);
    ASSERT_NE(pe, nullptr);
    const auto *hdr = pool.header(pe->subPage);
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
        table->insert(a, i, lineOf(1), sinks);
        want[a] = true;
    }
    std::map<Addr, bool> got;
    table->forEachVersion(
        [&](Addr line, Addr nvm) {
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
    EXPECT_TRUE(t.insert(0x0, 1, lineOf(1), sinks));
    EXPECT_FALSE(t.insert(0x1000, 2, lineOf(2), sinks))
        << "second full page does not fit";
}

TEST_F(EpochTableTest, TableBytesGrowWithFootprint)
{
    // The modelled 4-level radix: 4 KiB nodes, 16 B leaf descriptors.
    constexpr std::uint64_t node = 4096, leaf = 16;
    std::uint64_t bytes = node;   // the root
    EXPECT_EQ(table->tableBytes(), bytes);
    table->insert(0x1000, 1, lineOf(1), sinks);
    bytes += 3 * node + leaf;     // a node at every level below the root
    EXPECT_EQ(table->tableBytes(), bytes);
    table->insert(0x2000, 2, lineOf(1), sinks);
    bytes += leaf;                // same 2 MiB region
    EXPECT_EQ(table->tableBytes(), bytes);
    table->insert(0x2000, 3, lineOf(2), sinks);
    table->insert(0x2040, 4, lineOf(2), sinks);
    EXPECT_EQ(table->tableBytes(), bytes) << "pages already mapped";
    table->insert(0x200000, 5, lineOf(1), sinks);
    bytes += node + leaf;         // same 1 GiB, new 2 MiB region
    EXPECT_EQ(table->tableBytes(), bytes);
    table->insert(0x40000000, 6, lineOf(1), sinks);
    bytes += 2 * node + leaf;     // same 512 GiB, new 1 GiB region
    EXPECT_EQ(table->tableBytes(), bytes);
    table->insert(0x8000000000, 7, lineOf(1), sinks);
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
            ASSERT_TRUE(t.insert(a, 1, lineOf(1), sinks));
        EXPECT_EQ(footprint, t.tableBytes());
        EpochTable other(4, pool, EpochTable::Params{}, &footprint);
        other.insert(0x5000, 1, lineOf(1), sinks);
        EXPECT_EQ(footprint, t.tableBytes() + other.tableBytes());
    }
    EXPECT_EQ(footprint, 0u) << "destroyed tables subtract themselves";
}

TEST(EpochTableDeathTest, PageAddressBeyond48BitsIsRejected)
{
    PagePool pool(poolBase, 16 * pageBytes);
    EpochTable t(1, pool, EpochTable::Params{});
    EpochTable::Sinks sinks;
    // Bit 48 lies outside the modelled radix key (bits 47..12): the
    // hardware table would alias the page onto page 0x1000.
    EXPECT_DEATH(t.insert((1ull << 48) | 0x1000, 1, lineOf(1), sinks),
                 "48-bit table key");
}

TEST(MasterTable, InsertLookupReplace)
{
    MasterTable mt;
    EXPECT_EQ(mt.lookup(0x1000), nullptr);
    auto replaced = mt.insert(tenant::keyOf(0x1000), poolBase, 3);
    EXPECT_FALSE(replaced.has_value());
    const auto *e = mt.lookup(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->nvmAddr, poolBase);
    EXPECT_EQ(e->epoch, 3u);

    auto old = mt.insert(tenant::keyOf(0x1000), poolBase + 64, 5);
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(old->epoch, 3u);
    EXPECT_EQ(mt.lookup(0x1000)->epoch, 5u);
    EXPECT_EQ(mt.mappedLines(), 1u);
}

TEST(MasterTable, MetaWritesPerInsert)
{
    std::uint64_t bytes = 0;
    MasterTable mt([&](std::uint32_t b) { bytes += b; });
    mt.insert(tenant::keyOf(0x1000), poolBase, 1);
    // First insert creates 3 inner pointers + leaf pointer + entry.
    EXPECT_EQ(bytes, 5u * 8);
    bytes = 0;
    mt.insert(tenant::keyOf(0x1040), poolBase + 64, 1);   // same leaf
    EXPECT_EQ(bytes, 8u);
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
