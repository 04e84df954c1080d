/**
 * @file
 * Edge-case coverage: recovery validation failure paths, stats
 * printing, snapshot-reader boundaries, buffer bypass semantics, and
 * directory behaviour under eviction pressure.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "mem/dram_model.hh"
#include "mem/nvm_model.hh"
#include "nvoverlay/omc.hh"
#include "nvoverlay/recovery.hh"
#include "nvoverlay/snapshot_reader.hh"

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

TEST(RecoveryValidate, DetectsCorruptedImage)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 1;
    params.numVds = 1;
    MnmBackend backend(params, nvm, stats);
    backend.insertVersion(0x1000, 1, 1, lineOf(7), 0);
    backend.reportMinVer(0, 2, 0);

    RecoveryManager rm(backend);
    auto result = rm.recover();
    EXPECT_EQ(RecoveryManager::validate(result, backend), "");

    // Corrupt one recovered line: validation must notice.
    result.image->writeLine(0x1000, lineOf(8));
    EXPECT_NE(RecoveryManager::validate(result, backend), "");
}

TEST(RecoveryValidate, DetectsMissingLines)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 1;
    params.numVds = 1;
    MnmBackend backend(params, nvm, stats);
    backend.insertVersion(0x1000, 1, 1, lineOf(7), 0);

    RecoveryManager rm(backend);
    auto result = rm.recover();   // before any merge: empty master
    EXPECT_EQ(result.linesRestored, 0u);
    backend.reportMinVer(0, 2, 0);   // now the master maps the line
    EXPECT_NE(RecoveryManager::validate(result, backend), "")
        << "image restored fewer lines than the master maps";
}

TEST(SnapshotReaderEdge, EpochZeroAndUnknownLines)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 1;
    params.numVds = 1;
    MnmBackend backend(params, nvm, stats);
    backend.insertVersion(0x1000, 3, 1, lineOf(9), 0);

    SnapshotReader reader(backend);
    EXPECT_FALSE(reader.readLine(0x1000, 0).has_value());
    EXPECT_FALSE(reader.readLine(0x1000, 2).has_value());
    EXPECT_TRUE(reader.readLine(0x1000, 3).has_value());
    EXPECT_FALSE(reader.readLine(0x9999000, 100).has_value());
    // Unaligned byte address resolves to its line.
    EXPECT_TRUE(reader.readLine(0x1017, 3).has_value());
}

TEST(SnapshotReaderEdge, MultiLineReadFailsOnGaps)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 1;
    params.numVds = 1;
    MnmBackend backend(params, nvm, stats);
    backend.insertVersion(0x1000, 1, 1, lineOf(1), 0);
    // 0x1040 never snapshotted.
    SnapshotReader reader(backend);
    std::uint8_t buf[96];
    EXPECT_FALSE(reader.read(0x1020, buf, sizeof(buf), 1))
        << "read spanning an unmapped line must fail";
    EXPECT_TRUE(reader.read(0x1000, buf, 64, 1));
}

TEST(BufferBypass, FinalizeStopsBuffering)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend::Params params;
    params.numOmcs = 1;
    params.numVds = 1;
    params.useBuffer = true;
    MnmBackend backend(params, nvm, stats);
    backend.insertVersion(0x1000, 1, 1, lineOf(1), 0);
    EXPECT_EQ(stats.nvmDataBytes(), 0u) << "buffered";
    backend.finalize(0);
    backend.insertVersion(0x1040, 1, 2, lineOf(2), 0);
    EXPECT_GE(stats.nvmDataBytes(), 128u)
        << "post-finalize inserts write through";
}

TEST(StatsPrint, ContainsKeyFields)
{
    RunStats st;
    st.cycles = 123;
    st.refs = 45;
    st.addNvmWrite(NvmWriteKind::Data, 64, 0);
    std::ostringstream os;
    st.print(os, "unit");
    std::string text = os.str();
    EXPECT_NE(text.find("=== unit ==="), std::string::npos);
    EXPECT_NE(text.find("cycles 123"), std::string::npos);
    EXPECT_NE(text.find("data=64"), std::string::npos);
    EXPECT_NE(text.find("tag-walk=0"), std::string::npos);
}

TEST(DirectoryEdge, EvictionReleasesPresence)
{
    RunStats stats;
    BackingStore backing;
    DramModel dram(DramModel::Params{}, &stats);
    Hierarchy::Params p;
    p.numCores = 2;
    p.coresPerVd = 2;
    p.numLlcSlices = 1;
    p.l1.sizeBytes = 512;   // 8 lines
    p.l1.ways = 2;
    p.l2.sizeBytes = 1024;  // 16 lines
    p.l2.ways = 2;
    p.llc.sliceBytes = 16 * 1024;
    Hierarchy hier(p, backing, dram, stats);

    // Touch far more lines than the L2 holds: directory entries for
    // evicted lines must drop this VD.
    for (Addr a = 0; a < 64; ++a)
        hier.store(0, 0x100000 + a * 4096, nullptr, 8, 0);
    unsigned resident = 0;
    for (Addr a = 0; a < 64; ++a) {
        const DirEntry *e = hier.dirEntry(0x100000 + a * 4096);
        if (e && e->isSharer(0))
            ++resident;
    }
    EXPECT_LE(resident, 16u) << "at most the L2 capacity stays listed";
    EXPECT_EQ(hier.checkInvariants(), "");
}

/**
 * The slice's flat directory table against std::map under random
 * creates and erases: keys come in runs of consecutive lines (the
 * probe-cluster case) and the table grows from its small start to
 * thousands of entries, so backward-shift deletion is exercised
 * across wrap-around and resizes.
 */
TEST(DirectoryEdge, FlatTableMatchesAMap)
{
    LlcSlice::Params sp;
    sp.sliceBytes = 16 * 1024;
    LlcSlice sl(sp);
    std::map<Addr, std::uint32_t> model;
    Rng rng(11);
    std::uint64_t erased = 0;
    for (int i = 0; i < 200000; ++i) {
        // Runs of 64 consecutive lines in a handful of regions.
        const Addr a = (rng.below(8) << 24) + rng.below(6000) * lineBytes;
        if (rng.chance(0.55)) {
            DirEntry &e = sl.dir(a);
            auto it = model.find(a);
            ASSERT_EQ(e.sharerVds, it == model.end() ? 0u : it->second)
                << "op " << i;
            if (it == model.end()) {
                ASSERT_EQ(e.ownerVd, -1) << "fresh entry, op " << i;
            }
            e.sharerVds = 1u + static_cast<std::uint32_t>(rng.below(255));
            model[a] = e.sharerVds;
        } else if (model.count(a)) {
            sl.dirErase(a);
            model.erase(a);
            ++erased;
        }
        const DirEntry *probe = sl.dirProbe(a);
        ASSERT_EQ(probe != nullptr, model.count(a) == 1) << "op " << i;
    }
    std::map<Addr, std::uint32_t> seen;
    sl.forEachDir([&](Addr a, const DirEntry &e) { seen[a] = e.sharerVds; });
    EXPECT_EQ(seen, model);
    EXPECT_GT(model.size(), 10000u) << "the table grew";
    EXPECT_GT(erased, 30000u);
    sl.audit();
}

TEST(LlcEdge, DirtyVictimsReachDram)
{
    RunStats stats;
    BackingStore backing;
    DramModel dram(DramModel::Params{}, &stats);
    Hierarchy::Params p;
    p.numCores = 2;
    p.coresPerVd = 2;
    p.numLlcSlices = 1;
    p.l1.sizeBytes = 512;
    p.l1.ways = 2;
    p.l2.sizeBytes = 1024;
    p.l2.ways = 2;
    p.llc.sliceBytes = 2048;   // 32 lines
    p.llc.ways = 2;
    Hierarchy hier(p, backing, dram, stats);

    for (Addr a = 0; a < 512; ++a)
        hier.store(0, 0x200000 + a * 4096, nullptr, 8, 0);
    EXPECT_GT(stats.dramWriteBytes, 0u)
        << "LLC capacity victims write back to DRAM";
}

} // namespace
} // namespace nvo
