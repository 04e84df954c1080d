/**
 * @file
 * MNM backend tests: version insertion, the min-ver / recoverable
 * epoch protocol, background merging, time-travel reads, the OMC
 * buffer integration, and garbage collection (paper Sec. V).
 */

#include <gtest/gtest.h>

#include "mem/nvm_model.hh"
#include "nvoverlay/omc.hh"

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

class MnmTest : public ::testing::Test
{
  protected:
    MnmTest() : nvm(NvmModel::Params{}, &stats)
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

    RunStats stats;
    NvmModel nvm;
    MnmBackend::Params params;
    std::unique_ptr<MnmBackend> backend;
    SeqNo seq = 0;
};

TEST_F(MnmTest, VersionsLandInPerEpochTables)
{
    backend->insertVersion(0x1000, 3, ++seq, lineOf(1), 0);
    unsigned omc = backend->omcOf(0x1000);
    EpochTable *t = backend->epochTable(omc, 3);
    ASSERT_NE(t, nullptr);
    LineData out;
    EXPECT_TRUE(t->readVersion(0x1000, out));
    EXPECT_EQ(out, lineOf(1));
    EXPECT_GT(stats.nvmDataBytes(), 0u);
}

TEST_F(MnmTest, AddressPartitioningAcrossOmcs)
{
    EXPECT_NE(backend->omcOf(0x1000), backend->omcOf(0x1040));
    EXPECT_EQ(backend->omcOf(0x1000), backend->omcOf(0x1080));
}

TEST_F(MnmTest, RecEpochWaitsForAllVds)
{
    backend->insertVersion(0x1000, 1, ++seq, lineOf(1), 0);
    backend->reportMinVer(0, 5, 0);
    EXPECT_EQ(backend->recEpoch(), 0u)
        << "VD 1 has not certified anything";
    backend->reportMinVer(1, 3, 0);
    EXPECT_EQ(backend->recEpoch(), 2u)
        << "rec-epoch = min(min-vers) - 1";
    backend->reportMinVer(1, 9, 0);
    EXPECT_EQ(backend->recEpoch(), 4u);
}

TEST_F(MnmTest, MinVerNeverRegresses)
{
    backend->reportMinVer(0, 8, 0);
    backend->reportMinVer(1, 8, 0);
    EXPECT_EQ(backend->recEpoch(), 7u);
    backend->reportMinVer(0, 2, 0);   // stale report ignored
    EXPECT_EQ(backend->recEpoch(), 7u);
}

TEST_F(MnmTest, MergePopulatesMaster)
{
    backend->insertVersion(0x1000, 1, ++seq, lineOf(1), 0);
    backend->insertVersion(0x1000, 2, ++seq, lineOf(2), 0);
    backend->insertVersion(0x2040, 2, ++seq, lineOf(3), 0);

    backend->reportMinVer(0, 3, 0);
    backend->reportMinVer(1, 3, 0);
    EXPECT_EQ(backend->recEpoch(), 2u);

    LineData out;
    ASSERT_TRUE(backend->readMaster(0x1000, out));
    EXPECT_EQ(out, lineOf(2)) << "master maps the newest merged epoch";
    ASSERT_TRUE(backend->readMaster(0x2040, out));
    EXPECT_EQ(out, lineOf(3));
    EXPECT_GE(backend->mergesDone(), 2u);
}

TEST_F(MnmTest, MergeMovesNoData)
{
    backend->insertVersion(0x1000, 1, ++seq, lineOf(1), 0);
    unsigned omc = backend->omcOf(0x1000);
    Addr before = backend->epochTable(omc, 1)->lookupNvm(0x1000);
    std::uint64_t data_before = stats.nvmDataBytes();

    backend->reportMinVer(0, 2, 0);
    backend->reportMinVer(1, 2, 0);

    const auto *entry = backend->master(omc).lookup(0x1000);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->nvmAddr, before)
        << "merge copies table entries only (Sec. II-E)";
    EXPECT_EQ(stats.nvmDataBytes(), data_before);
    EXPECT_GT(stats.nvmWriteBytes[static_cast<int>(
                  NvmWriteKind::Mapping)],
              0u);
}

TEST_F(MnmTest, LateVersionBehindRecEpochReachesMaster)
{
    backend->insertVersion(0x1000, 5, ++seq, lineOf(7), 0);
    backend->reportMinVer(0, 6, 0);
    backend->reportMinVer(1, 6, 0);
    ASSERT_EQ(backend->recEpoch(), 5u);

    // A dirty line can migrate between VDs cache-to-cache (Fig. 6
    // optimization 2) and outlive its source VD's certified min-ver,
    // so its write-back can arrive after its epoch's merge pass
    // already ran; it must still become visible to recovery.
    backend->insertVersion(0x2000, 3, ++seq, lineOf(4), 0);
    LineData out;
    ASSERT_TRUE(backend->readMaster(0x2000, out))
        << "late version never merged: silent snapshot hole";
    EXPECT_EQ(out, lineOf(4));

    // ...but a late arrival must never displace a newer mapping.
    backend->insertVersion(0x1000, 2, ++seq, lineOf(9), 0);
    ASSERT_TRUE(backend->readMaster(0x1000, out));
    EXPECT_EQ(out, lineOf(7));

    backend->audit();
}

TEST_F(MnmTest, LateMergeThatGrowsASubPageRemapsTheMaster)
{
    params.numOmcs = 1;
    params.numVds = 1;
    params.table.initLines = 4;
    rebuild();
    const Addr page = 0x10000;
    // Lines 0-3 fill the page's initial 4-line sub-page; the merge
    // maps them into the master by NVM address.
    for (unsigned i = 0; i < 4; ++i)
        backend->insertVersion(page + i * lineBytes, 1, ++seq,
                               lineOf(10 + i), 0);
    backend->reportMinVer(0, 2, 0);
    ASSERT_EQ(backend->recEpoch(), 1u);

    // A late line-4 version grows the merged table's sub-page, which
    // moves lines 0-3 and frees their old block.
    backend->insertVersion(page + 4 * lineBytes, 1, ++seq, lineOf(14),
                           0);
    const EpochTable *table = backend->epochTable(0, 1);
    ASSERT_NE(table, nullptr);
    for (unsigned i = 0; i < 5; ++i) {
        const Addr line = page + i * lineBytes;
        const auto *entry = backend->master(0).lookup(line);
        ASSERT_NE(entry, nullptr) << "line " << i;
        EXPECT_EQ(entry->nvmAddr, table->lookupNvm(line))
            << "master still points at the freed sub-page, line " << i;
    }

    // Another page's sub-page may reuse the freed block; recovery
    // must still read lines 0-3's own content.
    backend->insertVersion(0x20000, 3, ++seq, lineOf(99), 0);
    for (unsigned i = 0; i < 5; ++i) {
        LineData out;
        ASSERT_TRUE(backend->readMaster(page + i * lineBytes, out));
        EXPECT_EQ(out, lineOf(10 + i)) << "line " << i;
    }
    backend->audit();
}

TEST_F(MnmTest, SnapshotFallThroughSemantics)
{
    backend->insertVersion(0x1000, 2, ++seq, lineOf(2), 0);
    backend->insertVersion(0x1000, 5, ++seq, lineOf(5), 0);

    LineData out;
    EpochWide found;
    EXPECT_FALSE(backend->readSnapshot(0x1000, 1, out, &found));
    ASSERT_TRUE(backend->readSnapshot(0x1000, 2, out, &found));
    EXPECT_EQ(found, 2u);
    EXPECT_EQ(out, lineOf(2));
    ASSERT_TRUE(backend->readSnapshot(0x1000, 4, out, &found));
    EXPECT_EQ(found, 2u) << "largest E' <= 4 mapping the line";
    ASSERT_TRUE(backend->readSnapshot(0x1000, 9, out, &found));
    EXPECT_EQ(found, 5u);
}

TEST_F(MnmTest, TableStoreGapsAndLateRecreation)
{
    // Versions at epochs 1, 4 and 9: the partition's table store spans
    // epochs 1-9 with gaps.
    backend->insertVersion(0x1000, 1, ++seq, lineOf(1), 0);
    backend->insertVersion(0x1000, 4, ++seq, lineOf(4), 0);
    backend->insertVersion(0x1000, 9, ++seq, lineOf(9), 0);
    const unsigned omc = backend->omcOf(0x1000);
    EXPECT_NE(backend->epochTable(omc, 1), nullptr);
    EXPECT_NE(backend->epochTable(omc, 4), nullptr);
    EXPECT_NE(backend->epochTable(omc, 9), nullptr);
    EXPECT_EQ(backend->epochTable(omc, 6), nullptr) << "a gap";
    EXPECT_EQ(backend->epochTable(omc, 0), nullptr) << "below the store";
    EXPECT_EQ(backend->epochTable(omc, 10), nullptr) << "past the store";
    EXPECT_EQ(backend->epochTable(1 - omc, 4), nullptr);

    LineData out;
    EpochWide found = 0;
    ASSERT_TRUE(backend->readSnapshot(0x1000, 3, out, &found));
    EXPECT_EQ(found, 1u);
    EXPECT_EQ(out, lineOf(1));
    ASSERT_TRUE(backend->readSnapshot(0x1000, 8, out, &found));
    EXPECT_EQ(found, 4u);
    EXPECT_EQ(out, lineOf(4));
    ASSERT_TRUE(backend->readSnapshot(0x1000, 1000, out, &found));
    EXPECT_EQ(found, 9u);
    EXPECT_FALSE(backend->readSnapshot(0x1000, 0, out, &found));

    // Dropping merged tables moves the store's front past them; a late
    // version at a dropped epoch re-creates its table below the front,
    // and the late-merge path maps it in the master.
    params.dropMergedTables = true;
    rebuild();
    backend->insertVersion(0x1000, 2, ++seq, lineOf(2), 0);
    backend->insertVersion(0x1000, 5, ++seq, lineOf(5), 0);
    backend->insertVersion(0x1000, 8, ++seq, lineOf(8), 0);
    backend->reportMinVer(0, 6, 0);
    backend->reportMinVer(1, 6, 0);
    ASSERT_EQ(backend->recEpoch(), 5u);
    EXPECT_EQ(backend->epochTable(omc, 2), nullptr);
    EXPECT_EQ(backend->epochTable(omc, 5), nullptr);
    ASSERT_NE(backend->epochTable(omc, 8), nullptr);

    const Addr late = 0x2000;
    ASSERT_EQ(backend->omcOf(late), omc);
    backend->insertVersion(late, 2, ++seq, lineOf(22), 0);
    const EpochTable *table = backend->epochTable(omc, 2);
    ASSERT_NE(table, nullptr) << "the dropped epoch's table is re-created";
    const auto *entry = backend->master(omc).lookup(late);
    ASSERT_NE(entry, nullptr) << "the late version was never merged";
    EXPECT_EQ(entry->epoch, 2u);
    EXPECT_EQ(entry->nvmAddr, table->lookupNvm(late));
    ASSERT_TRUE(backend->readMaster(late, out));
    EXPECT_EQ(out, lineOf(22));
    ASSERT_TRUE(backend->readSnapshot(late, 4, out, &found));
    EXPECT_EQ(found, 2u);
    backend->audit();

    // The next advance merges and drops epoch 8 and leaves the
    // re-created table, already merged, alone.
    backend->reportMinVer(0, 9, 0);
    backend->reportMinVer(1, 9, 0);
    EXPECT_EQ(backend->epochTable(omc, 8), nullptr);
    EXPECT_NE(backend->epochTable(omc, 2), nullptr);
    ASSERT_TRUE(backend->readMaster(0x1000, out));
    EXPECT_EQ(out, lineOf(8));
    backend->audit();
}

TEST_F(MnmTest, BufferAbsorbsRedundantWrites)
{
    params.useBuffer = true;
    params.buffer.sizeBytes = 64 * 1024;
    rebuild();
    for (int i = 0; i < 10; ++i)
        backend->insertVersion(0x1000, 1, ++seq, lineOf(i), 0);
    EXPECT_EQ(stats.omcBufferHits, 9u);
    EXPECT_EQ(stats.omcBufferMisses, 1u);
    EXPECT_EQ(stats.nvmDataBytes(), 0u)
        << "writes deferred while buffered";
    backend->drainBuffers(0);
    EXPECT_EQ(stats.nvmDataBytes(), 64u) << "one write on drain";
    LineData out;
    unsigned omc = backend->omcOf(0x1000);
    backend->epochTable(omc, 1)->readVersion(0x1000, out);
    EXPECT_EQ(out, lineOf(9)) << "content is the newest absorbed";
}

TEST_F(MnmTest, BufferEpochConflictWritesThrough)
{
    params.useBuffer = true;
    rebuild();
    backend->insertVersion(0x1000, 1, ++seq, lineOf(1), 0);
    backend->insertVersion(0x1000, 2, ++seq, lineOf(2), 0);
    EXPECT_EQ(stats.nvmDataBytes(), 64u)
        << "epoch-1 version forced out to the device";
}

TEST_F(MnmTest, FinalizeFlushesMetadataAndRecEpoch)
{
    backend->insertVersion(0x1000, 1, ++seq, lineOf(1), 0);
    backend->reportMinVer(0, 2, 0);
    backend->reportMinVer(1, 2, 0);
    std::uint64_t map_before = stats.nvmWriteBytes[static_cast<int>(
        NvmWriteKind::Mapping)];
    backend->finalize(0);
    EXPECT_GE(stats.nvmWriteBytes[static_cast<int>(
                  NvmWriteKind::Mapping)],
              map_before + 8);   // at least the rec-epoch word
}

TEST_F(MnmTest, UpdateStatsAggregates)
{
    backend->insertVersion(0x1000, 1, ++seq, lineOf(1), 0);
    backend->insertVersion(0x1040, 1, ++seq, lineOf(1), 0);
    backend->insertVersion(0x1000, 2, ++seq, lineOf(2), 0);
    backend->insertVersion(0x40201000, 3, ++seq, lineOf(3), 0);
    backend->reportMinVer(0, 2, 0);
    backend->reportMinVer(1, 2, 0);
    backend->updateStats();
    EXPECT_GT(stats.masterTableBytes, 0u);
    EXPECT_EQ(stats.masterMappedLines, 2u);
    EXPECT_GT(stats.poolPagesInUse, 0u);
    // The running footprint equals a rescan of every table.
    std::uint64_t scanned = 0;
    unsigned tables = 0;
    for (unsigned o = 0; o < backend->numOmcs(); ++o)
        for (EpochWide e = 0; e <= 3; ++e)
            if (EpochTable *t = backend->epochTable(o, e)) {
                scanned += t->tableBytes();
                ++tables;
            }
    EXPECT_EQ(tables, 4u);
    EXPECT_EQ(stats.epochTableBytes, scanned);
    EXPECT_EQ(backend->epochTableBytesTotal(), scanned);
}

TEST_F(MnmTest, CompactionReclaimsStaleEpochs)
{
    params.compactionThreshold = 0.5;
    rebuild();
    // Epoch 1 writes lines; epoch 2 overwrites all of them, making
    // epoch 1 fully stale after both merge.
    for (unsigned i = 0; i < 64; ++i)
        backend->insertVersion(0x10000 + i * 64, 1, ++seq, lineOf(1),
                               0);
    for (unsigned i = 0; i < 64; ++i)
        backend->insertVersion(0x10000 + i * 64, 2, ++seq, lineOf(2),
                               0);
    backend->reportMinVer(0, 3, 0);
    backend->reportMinVer(1, 3, 0);

    unsigned omc0 = backend->omcOf(0x10000);
    std::uint64_t bytes_before = backend->pool(omc0).bytesAllocated();
    backend->compact(0);
    EXPECT_LT(backend->pool(omc0).bytesAllocated(), bytes_before)
        << "fully-stale epoch-1 sub-pages reclaimed";
    // The current image is intact.
    LineData out;
    ASSERT_TRUE(backend->readMaster(0x10000, out));
    EXPECT_EQ(out, lineOf(2));
}

TEST_F(MnmTest, CompactionCopiesLiveVersionsForward)
{
    params.compactionThreshold = 0.5;
    rebuild();
    // Epoch 1: two pages of versions. Epoch 2 overwrites only one of
    // them, so epoch 1 keeps live versions that must be copied
    // forward when compaction runs.
    for (unsigned i = 0; i < 8; ++i)
        backend->insertVersion(0x20000 + i * 64, 1, ++seq,
                               lineOf(10 + i), 0);
    for (unsigned i = 0; i < 8; ++i)
        backend->insertVersion(0x30000 + i * 64, 1, ++seq,
                               lineOf(20 + i), 0);
    for (unsigned i = 0; i < 8; ++i)
        backend->insertVersion(0x30000 + i * 64, 2, ++seq,
                               lineOf(30 + i), 0);
    backend->reportMinVer(0, 3, 0);
    backend->reportMinVer(1, 3, 0);

    backend->compact(0);
    EXPECT_GT(stats.gcBytesCopied, 0u);
    // Live epoch-1 versions still readable through the master.
    for (unsigned i = 0; i < 8; ++i) {
        LineData out;
        ASSERT_TRUE(backend->readMaster(0x20000 + i * 64, out));
        EXPECT_EQ(out, lineOf(10 + i)) << "line " << i;
        ASSERT_TRUE(backend->readMaster(0x30000 + i * 64, out));
        EXPECT_EQ(out, lineOf(30 + i));
    }
}

TEST_F(MnmTest, PoolAutoExtendsWhenFull)
{
    params.poolBytesPerOmc = pageBytes;   // one page per OMC
    params.extendPages = 4;
    rebuild();
    // Insert more than a page of versions into one partition.
    for (unsigned i = 0; i < 128; ++i)
        backend->insertVersion(0x40000 + i * 128, 1, ++seq, lineOf(1),
                               0);
    EXPECT_GT(stats.extra["pool_extensions"], 0u);
}

} // namespace
} // namespace nvo
