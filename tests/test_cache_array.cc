/**
 * @file
 * Unit and property tests for the set-associative CacheArray,
 * parameterized over geometry.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cache/cache_array.hh"
#include "common/rng.hh"

namespace nvo
{
namespace
{

TEST(CacheArray, GeometryDerivation)
{
    CacheArray arr(32 * 1024, 8);
    EXPECT_EQ(arr.numWays(), 8u);
    EXPECT_EQ(arr.numSets(), 32u * 1024 / 8 / 64);
    EXPECT_EQ(arr.sizeBytes(), 32u * 1024);
}

TEST(CacheArray, LookupMissThenHit)
{
    CacheArray arr(4096, 4);
    EXPECT_EQ(arr.lookup(0x1000), nullptr);
    CacheLine *slot = arr.allocSlot(0x1000);
    ASSERT_NE(slot, nullptr);
    EXPECT_FALSE(slot->valid());
    slot->addr = 0x1000;
    slot->state = CohState::E;
    EXPECT_EQ(arr.lookup(0x1000), slot);
    EXPECT_EQ(arr.numValid(), 1u);
}

TEST(CacheArray, LruVictimSelection)
{
    CacheArray arr(4 * 64, 4);   // one set, 4 ways
    for (Addr a = 0; a < 4; ++a) {
        CacheLine *slot = arr.allocSlot(a * 64 * arr.numSets());
        slot->addr = a * 64 * arr.numSets();
        slot->state = CohState::S;
        arr.lookup(slot->addr);
    }
    // Touch line 0 so line 1 becomes LRU.
    arr.lookup(0);
    CacheLine *victim = arr.allocSlot(4 * 64 * arr.numSets());
    EXPECT_EQ(victim->addr, 1u * 64 * arr.numSets());
}

TEST(CacheArray, InvalidSlotPreferredOverVictim)
{
    CacheArray arr(4 * 64, 4);
    CacheLine *a = arr.allocSlot(0);
    a->addr = 0;
    a->state = CohState::S;
    CacheLine *b = arr.allocSlot(64 * arr.numSets());
    EXPECT_FALSE(b->valid());
    EXPECT_NE(a, b);
}

TEST(CacheArray, InvalidateResets)
{
    CacheArray arr(4096, 4);
    CacheLine *slot = arr.allocSlot(0x40 * arr.numSets() * 2);
    slot->addr = 0x40 * arr.numSets() * 2;
    slot->state = CohState::M;
    slot->dirty = true;
    arr.invalidate(slot);
    EXPECT_FALSE(slot->valid());
    EXPECT_EQ(arr.numValid(), 0u);
}

TEST(CacheArray, ForEachValidVisitsAll)
{
    CacheArray arr(8192, 8);
    std::unordered_set<Addr> inserted;
    for (unsigned i = 0; i < 20; ++i) {
        Addr a = i * 64;
        CacheLine *slot = arr.allocSlot(a);
        if (slot->valid())
            continue;
        slot->addr = a;
        slot->state = CohState::S;
        inserted.insert(a);
    }
    std::unordered_set<Addr> seen;
    arr.forEachValid([&](CacheLine &line) { seen.insert(line.addr); });
    EXPECT_EQ(seen, inserted);
}

/** Property sweep: random fill never exceeds capacity, set mapping
 *  stays stable, hits return the inserted line. */
class CacheArrayGeom
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(CacheArrayGeom, RandomFillProperties)
{
    auto [size_kb, ways] = GetParam();
    CacheArray arr(size_kb * 1024ull, ways);
    Rng rng(size_kb * 131 + ways);
    std::unordered_set<Addr> present;

    for (int i = 0; i < 20000; ++i) {
        Addr a = lineAlign(rng.below(1 << 22));
        CacheLine *line = arr.lookup(a);
        if (line) {
            EXPECT_EQ(line->addr, a);
            EXPECT_TRUE(present.count(a));
            continue;
        }
        CacheLine *slot = arr.allocSlot(a);
        if (slot->valid())
            present.erase(slot->addr);
        slot->reset();
        slot->addr = a;
        slot->state = CohState::S;
        present.insert(a);
        EXPECT_LE(arr.numValid(), arr.numSets() * arr.numWays());
    }
    EXPECT_EQ(arr.numValid(), present.size());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayGeom,
    ::testing::Values(std::make_pair(4u, 1u), std::make_pair(4u, 4u),
                      std::make_pair(32u, 8u),
                      std::make_pair(256u, 16u)));

/**
 * Reference model of slot choice and replacement, written out so any
 * drift in CacheArray's victim choice shows here (every committed
 * BENCH_*.json depends on it). Each way holds an address or nothing
 * and a stamp from the model's own clock. The victim for a fill is
 * the first invalid way of the set, else the first way with the
 * smallest stamp. install() and a lookup hit stamp the way MRU; a
 * probe and a lookup miss leave every stamp alone.
 */
class LruModel
{
  public:
    LruModel(unsigned sets, unsigned ways)
        : sets(sets), ways(ways),
          slotAddr(static_cast<std::size_t>(sets) * ways, invalidAddr),
          stamp(static_cast<std::size_t>(sets) * ways, 0)
    {
    }

    /** Slot holding @p a, or -1. */
    long
    find(Addr a) const
    {
        const std::size_t base = setBase(a);
        for (unsigned w = 0; w < ways; ++w)
            if (slotAddr[base + w] == a)
                return static_cast<long>(base + w);
        return -1;
    }

    long
    lookup(Addr a)
    {
        const long slot = find(a);
        if (slot >= 0)
            stamp[static_cast<std::size_t>(slot)] = ++clock;
        return slot;
    }

    long
    victim(Addr a) const
    {
        const std::size_t base = setBase(a);
        for (unsigned w = 0; w < ways; ++w)
            if (slotAddr[base + w] == invalidAddr)
                return static_cast<long>(base + w);
        std::size_t best = base;
        for (unsigned w = 1; w < ways; ++w)
            if (stamp[base + w] < stamp[best])
                best = base + w;
        return static_cast<long>(best);
    }

    void
    install(long slot, Addr a)
    {
        slotAddr[static_cast<std::size_t>(slot)] = a;
        stamp[static_cast<std::size_t>(slot)] = ++clock;
    }

    void
    invalidate(long slot)
    {
        slotAddr[static_cast<std::size_t>(slot)] = invalidAddr;
    }

  private:
    std::size_t
    setBase(Addr a) const
    {
        return static_cast<std::size_t>((a >> lineBytesLog2) &
                                        (sets - 1)) *
               ways;
    }

    unsigned sets, ways;
    std::vector<Addr> slotAddr;
    std::vector<std::uint64_t> stamp;
    std::uint64_t clock = 0;
};

/** Random allocSlot/install/lookup/probe/invalidate sequences on
 *  small arrays of (sets, ways): every slot CacheArray returns is the
 *  model's. */
class CacheArrayLru
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(CacheArrayLru, SlotChoiceMatchesLruModel)
{
    auto [sets, ways] = GetParam();
    CacheArray arr(static_cast<std::uint64_t>(sets) * ways * lineBytes,
                   ways);
    ASSERT_EQ(arr.numSets(), sets);
    LruModel model(sets, ways);
    CacheLine *const slots = arr.setBase(0);
    auto index = [slots](const CacheLine *line) {
        return line ? static_cast<long>(line - slots) : -1L;
    };
    // Three lines per slot: sets fill, hit and evict in turn.
    const std::uint64_t pool = 3ull * sets * ways;
    Rng rng(sets * 977 + ways);
    unsigned fills = 0, evictions = 0, hits = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.below(pool) * lineBytes;
        const std::uint64_t op = rng.below(10);
        if (op < 3) {
            const long want = model.lookup(a);
            ASSERT_EQ(index(arr.lookup(a)), want) << "lookup, op " << i;
            hits += want >= 0;
        } else if (op < 5) {
            ASSERT_EQ(index(arr.probe(a)), model.find(a))
                << "probe, op " << i;
        } else if (op < 9) {
            if (model.find(a) >= 0)
                continue;   // allocSlot requires an absent address
            CacheLine *slot = arr.allocSlot(a);
            const long want = model.victim(a);
            ASSERT_EQ(index(slot), want) << "allocSlot, op " << i;
            evictions += slot->valid();
            arr.install(slot, a);
            EXPECT_EQ(slot->addr, a);
            EXPECT_EQ(slot->state, CohState::I) << "install resets";
            slot->state = CohState::S;
            model.install(want, a);
            ++fills;
        } else {
            const long at = model.find(a);
            if (at < 0)
                continue;
            arr.invalidate(arr.probe(a));
            model.invalidate(at);
        }
    }
    EXPECT_GT(fills, 1000u);
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(evictions, 500u) << "sets filled and evicted";
}

INSTANTIATE_TEST_SUITE_P(
    SetsWays, CacheArrayLru,
    ::testing::Values(std::make_pair(1u, 4u), std::make_pair(8u, 1u),
                      std::make_pair(4u, 2u), std::make_pair(2u, 8u),
                      std::make_pair(16u, 16u)));

} // namespace
} // namespace nvo
