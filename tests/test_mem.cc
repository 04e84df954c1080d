/**
 * @file
 * Unit tests for the simulated memory layer: BackingStore content and
 * metadata, WriteTracker semantics, DRAM/NVM timing models.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hh"
#include "mem/backing_store.hh"
#include "mem/dram_model.hh"
#include "mem/nvm_model.hh"
#include "mem/write_tracker.hh"

namespace nvo
{
namespace
{

TEST(BackingStore, UntouchedLinesReadZero)
{
    BackingStore bs;
    LineData d;
    bs.readLine(0x1000, d);
    for (auto b : d.bytes)
        EXPECT_EQ(b, 0);
}

TEST(BackingStore, WriteReadRoundTrip)
{
    BackingStore bs;
    LineData in;
    for (unsigned i = 0; i < lineBytes; ++i)
        in.bytes[i] = static_cast<std::uint8_t>(i * 3);
    bs.writeLine(0x40, in);
    LineData out;
    bs.readLine(0x40, out);
    EXPECT_EQ(in, out);
}

TEST(BackingStore, PatchWithinLine)
{
    BackingStore bs;
    std::uint64_t v = 0xdeadbeefcafef00dull;
    bs.commitStore(0x1008, &v, 8, 3, 7);
    LineData out;
    bs.readLine(0x1000, out);
    std::uint64_t got;
    std::memcpy(&got, out.bytes.data() + 8, 8);
    EXPECT_EQ(got, v);
    EXPECT_EQ(out.bytes[0], 0);
    // The store's line carries its metadata.
    EXPECT_EQ(bs.lineOid(0x1000), 3u);
    EXPECT_EQ(bs.lineSeq(0x1000), 7u);
}

TEST(BackingStore, LineMetaRoundTrip)
{
    BackingStore bs;
    EXPECT_EQ(bs.lineOid(0x2000), 0u);
    bs.setLineMeta(0x2000, 42, 1234);
    EXPECT_EQ(bs.lineOid(0x2000), 42u);
    EXPECT_EQ(bs.lineSeq(0x2000), 1234u);
    // Other lines on the same page unaffected.
    EXPECT_EQ(bs.lineOid(0x2040), 0u);

    // A page written only by content has no metadata: it reads OID
    // and seq 0, and its first metadata write leaves the bytes intact.
    LineData d;
    d.bytes.fill(0x5a);
    bs.writeLine(0x3000, d);
    bs.writeLine(0x3040, d);
    EXPECT_EQ(bs.lineOid(0x3000), 0u);
    EXPECT_EQ(bs.lineSeq(0x3000), 0u);
    bs.setLineMeta(0x3040, 9, 99);
    LineData out;
    bs.readLine(0x3000, out);
    EXPECT_EQ(out, d);
    bs.readLine(0x3040, out);
    EXPECT_EQ(out, d);
    EXPECT_EQ(bs.lineOid(0x3040), 9u);
    EXPECT_EQ(bs.lineSeq(0x3040), 99u);
    EXPECT_EQ(bs.lineOid(0x3000), 0u);
    EXPECT_EQ(bs.numPages(), 2u);
}

TEST(BackingStore, SparsePagesMaterializeOnDemand)
{
    BackingStore bs;
    EXPECT_EQ(bs.numPages(), 0u);
    LineData d;
    bs.readLine(0x5000, d);
    EXPECT_EQ(bs.numPages(), 0u);   // reads do not materialize
    bs.writeLine(0x5000, d);
    bs.writeLine(0x5040, d);
    EXPECT_EQ(bs.numPages(), 1u);   // same page
    bs.writeLine(0x9000, d);
    EXPECT_EQ(bs.numPages(), 2u);

    // Thousands of pages through the page index: a dense run of
    // consecutive pages (the pattern that clusters a linearly probed
    // table under an identity hash) and a scattered set. Each page's
    // line holds its own address, so a misfiled page reads back wrong.
    BackingStore many;
    constexpr Addr denseBase = 0x10000000;
    constexpr unsigned densePages = 4096;
    std::vector<Addr> pages;
    for (unsigned i = 0; i < densePages; ++i)
        pages.push_back(denseBase + static_cast<Addr>(i) * pageBytes);
    Rng rng(7);
    std::set<Addr> scattered;
    while (scattered.size() < 1024) {
        const Addr p = pageAlign(rng.below(1ull << 40));
        if (p < denseBase || p >= denseBase + densePages * pageBytes)
            scattered.insert(p);
    }
    pages.insert(pages.end(), scattered.begin(), scattered.end());
    auto lineOfPage = [](Addr page) {
        LineData line;
        std::memcpy(line.bytes.data(), &page, sizeof page);
        return line;
    };
    for (Addr page : pages)
        many.writeLine(page + 2 * lineBytes, lineOfPage(page));
    EXPECT_EQ(many.numPages(), pages.size());
    for (Addr page : pages) {
        LineData out;
        many.readLine(page + 2 * lineBytes, out);
        ASSERT_EQ(out, lineOfPage(page)) << std::hex << page;
        many.readLine(page, out);
        ASSERT_EQ(out, LineData{}) << std::hex << page;
    }
    EXPECT_EQ(many.numPages(), pages.size()) << "reads add no pages";
}

TEST(BackingStore, ClearDropsEverything)
{
    BackingStore bs;
    LineData d;
    d.bytes[0] = 7;
    bs.writeLine(0x100, d);
    bs.setLineMeta(0x100, 4, 5);
    bs.clear();
    LineData out;
    bs.readLine(0x100, out);
    EXPECT_EQ(out.bytes[0], 0);
    EXPECT_EQ(bs.lineOid(0x100), 0u);
    EXPECT_EQ(bs.lineSeq(0x100), 0u);
    EXPECT_EQ(bs.numPages(), 0u);

    // The cleared store takes writes again, as a fresh one does.
    d.bytes[0] = 9;
    bs.writeLine(0x100, d);
    bs.writeLine(0x7000, d);
    bs.setLineMeta(0x7000, 6, 8);
    bs.readLine(0x100, out);
    EXPECT_EQ(out, d);
    bs.readLine(0x7000, out);
    EXPECT_EQ(out, d);
    EXPECT_EQ(bs.lineOid(0x100), 0u);
    EXPECT_EQ(bs.lineOid(0x7000), 6u);
    EXPECT_EQ(bs.lineSeq(0x7000), 8u);
    EXPECT_EQ(bs.numPages(), 2u);
}

TEST(LineData, DigestDistinguishesContent)
{
    LineData a, b;
    EXPECT_EQ(a.digest(), b.digest());
    b.bytes[63] = 1;
    EXPECT_NE(a.digest(), b.digest());
}

TEST(WriteTracker, ExpectedDigestPicksLastAtOrBeforeEpoch)
{
    WriteTracker wt;
    wt.record(0x40, 1, 5, 111);
    wt.record(0x40, 2, 5, 222);
    wt.record(0x40, 3, 8, 333);
    EXPECT_EQ(wt.expectedDigest(0x40, 4), std::nullopt);
    EXPECT_EQ(wt.expectedDigest(0x40, 5).value(), 222u);
    EXPECT_EQ(wt.expectedDigest(0x40, 7).value(), 222u);
    EXPECT_EQ(wt.expectedDigest(0x40, 8).value(), 333u);
    EXPECT_EQ(wt.expectedDigest(0x80, 8), std::nullopt);
}

TEST(WriteTracker, MonotonicityCheck)
{
    WriteTracker wt;
    wt.record(0x40, 1, 5, 1);
    wt.record(0x40, 2, 7, 2);
    EXPECT_TRUE(wt.epochsMonotonic());
    wt.record(0x40, 3, 6, 3);
    EXPECT_FALSE(wt.epochsMonotonic());
}

TEST(NvmModel, BurstsAbsorbedByBuffer)
{
    NvmModel::Params p;
    p.bufferBytes = 1 << 20;
    NvmModel nvm(p, nullptr);
    // A burst far smaller than the buffer must not stall.
    Cycle total_stall = 0;
    for (int i = 0; i < 1000; ++i)
        total_stall += nvm.write(i * 64, 64, 100, NvmWriteKind::Data)
                           .stall;
    EXPECT_EQ(total_stall, 0u);
}

TEST(NvmModel, SustainedOversubscriptionStalls)
{
    NvmModel::Params p;
    p.banks = 4;
    p.writeOccupancy = 400;
    p.bufferBytes = 4096;   // tiny buffer
    NvmModel nvm(p, nullptr);
    // Demand far above 4*64/400 bytes/cycle at a fixed time.
    Cycle total_stall = 0;
    for (int i = 0; i < 10000; ++i)
        total_stall += nvm.write(i * 64, 64, 0, NvmWriteKind::Data)
                           .stall;
    EXPECT_GT(total_stall, 0u);
}

TEST(NvmModel, CompletionReflectsBankOccupancy)
{
    NvmModel::Params p;
    p.banks = 1;
    p.writeOccupancy = 400;
    NvmModel nvm(p, nullptr);
    auto first = nvm.write(0, 64, 0, NvmWriteKind::Data);
    auto second = nvm.write(0, 64, 0, NvmWriteKind::Data);
    EXPECT_EQ(first.completion, 400u);
    EXPECT_EQ(second.completion, 800u);   // serialized on the bank
}

TEST(NvmModel, BanksServeInParallel)
{
    NvmModel::Params p;
    p.banks = 16;
    p.writeOccupancy = 400;
    NvmModel nvm(p, nullptr);
    Cycle worst = 0;
    for (int i = 0; i < 16; ++i)
        worst = std::max(worst,
                         nvm.write(i * 64, 64, 0, NvmWriteKind::Data)
                             .completion);
    EXPECT_EQ(worst, 400u);   // all in distinct banks
}

TEST(NvmModel, StatsRecorded)
{
    RunStats st;
    NvmModel nvm(NvmModel::Params{}, &st);
    nvm.write(0, 64, 0, NvmWriteKind::Log);
    nvm.read(0, 64, 0);
    EXPECT_EQ(st.nvmWriteBytes[static_cast<int>(NvmWriteKind::Log)],
              64u);
    EXPECT_EQ(st.nvmReadBytes, 64u);
}

TEST(NvmModel, BytesPerCycleMatchesGeometry)
{
    NvmModel::Params p;
    p.banks = 64;
    p.writeOccupancy = 400;
    NvmModel nvm(p, nullptr);
    EXPECT_NEAR(nvm.bytesPerCycle(), 64.0 * 64 / 400, 1e-9);
}

TEST(DramModel, LatencyAndChannelContention)
{
    DramModel::Params p;
    p.channels = 1;
    p.accessLatency = 150;
    p.occupancyPer64B = 18;
    DramModel dram(p, nullptr);
    EXPECT_EQ(dram.read(0, 64, 0), 150u);
    // Second access at the same instant queues behind the first.
    EXPECT_GT(dram.read(64, 64, 0), 150u);
}

TEST(DramModel, StatsRecorded)
{
    RunStats st;
    DramModel dram(DramModel::Params{}, &st);
    dram.read(0, 64, 0);
    dram.write(0, 128, 0);
    EXPECT_EQ(st.dramReadBytes, 64u);
    EXPECT_EQ(st.dramWriteBytes, 128u);
}

} // namespace
} // namespace nvo
