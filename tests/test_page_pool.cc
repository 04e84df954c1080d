/**
 * @file
 * NVM page pool tests: buddy sub-page allocation, headers, content,
 * exhaustion, and extension (paper Sec. V-C/V-D).
 */

#include <gtest/gtest.h>

#include <set>

#include "nvoverlay/page_pool.hh"

namespace nvo
{
namespace
{

constexpr Addr base = 1ull << 40;

TEST(PagePool, RoundLinesToPow2)
{
    EXPECT_EQ(PagePool::roundLines(1), 1u);
    EXPECT_EQ(PagePool::roundLines(3), 4u);
    EXPECT_EQ(PagePool::roundLines(4), 4u);
    EXPECT_EQ(PagePool::roundLines(33), 64u);
    EXPECT_EQ(PagePool::roundLines(64), 64u);
}

TEST(PagePool, FullPageAllocation)
{
    PagePool pool(base, 4 * pageBytes);
    std::set<Addr> seen;
    for (int i = 0; i < 4; ++i) {
        Addr a = pool.allocLines(64, 0);
        ASSERT_NE(a, invalidAddr);
        EXPECT_EQ(pageAlign(a), a);
        EXPECT_TRUE(seen.insert(a).second);
    }
    EXPECT_EQ(pool.allocLines(64, 0), invalidAddr) << "pool exhausted";
    EXPECT_EQ(pool.pagesInUse(), 4u);
}

TEST(PagePool, SubPageSplitting)
{
    PagePool pool(base, pageBytes);
    // 16 sub-pages of 4 lines fit in one page.
    std::set<Addr> seen;
    for (int i = 0; i < 16; ++i) {
        Addr a = pool.allocLines(4, 0);
        ASSERT_NE(a, invalidAddr);
        EXPECT_TRUE(seen.insert(a).second);
    }
    EXPECT_EQ(pool.pagesInUse(), 1u);
    EXPECT_EQ(pool.bytesAllocated(), pageBytes);
    EXPECT_EQ(pool.allocLines(1, 0), invalidAddr);
}

TEST(PagePool, SubPagesDoNotOverlap)
{
    PagePool pool(base, 8 * pageBytes);
    std::vector<std::pair<Addr, unsigned>> allocs;
    for (unsigned lines : {1u, 2u, 4u, 1u, 8u, 16u, 4u, 32u, 64u, 2u}) {
        Addr a = pool.allocLines(lines, 0);
        ASSERT_NE(a, invalidAddr);
        allocs.emplace_back(a, PagePool::roundLines(lines));
    }
    for (unsigned i = 0; i < allocs.size(); ++i) {
        for (unsigned j = i + 1; j < allocs.size(); ++j) {
            Addr ai = allocs[i].first;
            Addr ae = ai + allocs[i].second * lineBytes;
            Addr bi = allocs[j].first;
            Addr be = bi + allocs[j].second * lineBytes;
            EXPECT_TRUE(ae <= bi || be <= ai)
                << "overlap between " << i << " and " << j;
        }
    }
}

TEST(PagePool, FreeAndReuse)
{
    PagePool pool(base, pageBytes);
    Addr a = pool.allocLines(64, 0);
    pool.freeLines(a, 64, 0);
    Addr b = pool.allocLines(64, 0);
    EXPECT_EQ(a, b) << "freed block reused";
}

TEST(PagePool, ExtendGrowsCapacity)
{
    PagePool pool(base, pageBytes);
    ASSERT_NE(pool.allocLines(64, 0), invalidAddr);
    EXPECT_EQ(pool.allocLines(64, 0), invalidAddr);
    pool.extend(2);
    EXPECT_NE(pool.allocLines(64, 0), invalidAddr);
    EXPECT_EQ(pool.totalPages(), 3u);
}

TEST(PagePool, ContentRoundTrip)
{
    PagePool pool(base, pageBytes);
    Addr a = pool.allocLines(4, 0);
    LineData in;
    in.bytes[0] = 0xab;
    in.bytes[63] = 0xcd;
    pool.writeLine(a + 2 * lineBytes, in);
    LineData out;
    pool.readLine(a + 2 * lineBytes, out);
    EXPECT_EQ(in, out);
}

TEST(PagePool, HeaderLifecycle)
{
    PagePool pool(base, 4 * pageBytes);
    Addr a = pool.allocLines(8, 0);
    PagePool::SubPageHeader hdr;
    hdr.srcPage = 0x123000;
    hdr.epoch = 42;
    hdr.capacityLines = 8;
    const PagePool::HeaderId id =
        pool.setHeader(PagePool::noHeader, a, hdr);
    ASSERT_NE(pool.header(id), nullptr);
    EXPECT_EQ(pool.header(id)->srcPage, 0x123000u);
    EXPECT_EQ(pool.header(id)->epoch, 42u);
    EXPECT_EQ(pool.headerSubPage(id), a);

    unsigned count = 0;
    pool.forEachHeader([&](PagePool::HeaderId at_id, Addr at,
                           const PagePool::SubPageHeader &h) {
        ++count;
        EXPECT_EQ(at_id, id);
        EXPECT_EQ(at, a);
        EXPECT_EQ(h.epoch, 42u);
    });
    EXPECT_EQ(count, 1u);

    // A live slot is rewritten in place.
    hdr.epoch = 7;
    EXPECT_EQ(pool.setHeader(id, a, hdr), id);
    EXPECT_EQ(pool.header(id)->epoch, 7u);

    // A grown page drops its header and sets one on its new sub-page,
    // which takes the slot just freed.
    const Addr b = pool.allocLines(8, 0);
    const PagePool::HeaderId other =
        pool.setHeader(PagePool::noHeader, b, hdr);
    EXPECT_NE(other, id);
    pool.dropHeader(id);
    EXPECT_EQ(pool.header(id), nullptr);
    EXPECT_EQ(pool.headerSubPage(id), invalidAddr);
    pool.freeLines(a, 8, 0);
    const Addr grown = pool.allocLines(16, 0);
    hdr.capacityLines = 16;
    EXPECT_EQ(pool.setHeader(PagePool::noHeader, grown, hdr), id);
    EXPECT_EQ(pool.headerSubPage(id), grown);
    pool.audit();
}

TEST(PagePool, UtilizationTracksPages)
{
    PagePool pool(base, 10 * pageBytes);
    EXPECT_EQ(pool.totalPages(), 10u);
    EXPECT_EQ(pool.pagesInUse(), 0u);
    pool.allocLines(64, 0);
    EXPECT_EQ(pool.pagesInUse(), 1u);
    for (int i = 0; i < 16; ++i)
        pool.allocLines(4, 0);   // one more page split into sub-pages
    EXPECT_EQ(pool.pagesInUse(), 2u);
}

} // namespace
} // namespace nvo
