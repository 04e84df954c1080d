/**
 * @file
 * Flat open-addressing hash map keyed by cache-line address.
 *
 * One array of (line address, value) slots. A Fibonacci
 * (multiplicative) hash of the line number picks the home slot, so
 * runs of consecutive lines scatter across the table instead of
 * forming probe clusters; collisions probe linearly; an erase shifts
 * the rest of its probe run back, so no lookup steps over a
 * tombstone; and the table doubles at load 1/2 from 64 slots, so it
 * costs memory in proportion to its entries. invalidAddr marks an
 * empty slot and is never a key. Values move by assignment when the
 * table grows or an erase shifts a run, so keep them small.
 */

#ifndef NVO_COMMON_FLAT_LINE_MAP_HH
#define NVO_COMMON_FLAT_LINE_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/audit.hh"
#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace nvo
{

template <typename V>
class FlatLineMap
{
  public:
    FlatLineMap()
        : slots(std::size_t(1) << initialSlotsLog2),
          shift(64 - initialSlotsLog2)
    {
    }

    /**
     * Value of @p line_addr, value-initialized on first touch. The
     * reference stays valid only until the next operator[] or erase():
     * either may move slots.
     */
    V &
    operator[](Addr line_addr)
    {
        std::size_t i = find(line_addr);
        if (slots[i].addr == line_addr)
            return slots[i].value;
        if (2 * (count + 1) > slots.size()) {
            grow();
            i = find(line_addr);
        }
        slots[i].addr = line_addr;
        slots[i].value = V{};
        ++count;
        return slots[i].value;
    }

    /** Value of @p line_addr if present, else nullptr (same
     *  lifetime as operator[]'s reference). */
    V *
    probe(Addr line_addr)
    {
        Slot &s = slots[find(line_addr)];
        return s.addr == line_addr ? &s.value : nullptr;
    }

    const V *
    probe(Addr line_addr) const
    {
        const Slot &s = slots[find(line_addr)];
        return s.addr == line_addr ? &s.value : nullptr;
    }

    /** Erase @p line_addr's entry, which must exist. */
    void
    erase(Addr line_addr)
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t hole = find(line_addr);
        nvo_assert(slots[hole].addr == line_addr,
                   "erasing an absent flat-map entry");
        // Backward shift: walk the rest of the probe run and move
        // back every entry whose home does not lie cyclically in
        // (hole, j].
        for (std::size_t j = (hole + 1) & mask;
             slots[j].addr != invalidAddr; j = (j + 1) & mask) {
            const std::size_t h = home(slots[j].addr);
            if (((j - h) & mask) >= ((j - hole) & mask)) {
                slots[hole] = slots[j];
                hole = j;
            }
        }
        slots[hole] = Slot{};
        --count;
    }

    std::size_t size() const { return count; }

    /** Visit every entry as (line address, value), in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots)
            if (s.addr != invalidAddr)
                fn(s.addr, s.value);
    }

    /**
     * Invariant sweep (NVO_AUDIT): every key is line-aligned and sits
     * on the probe run of its hash, and the running entry count
     * matches the slots.
     */
    void
    audit() const
    {
        if (!audit::enabled)
            return;
        std::size_t entries = 0;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            const Addr addr = slots[i].addr;
            if (addr == invalidAddr)
                continue;
            ++entries;
            NVO_AUDIT(lineAlign(addr) == addr,
                      "flat line map keyed by an unaligned address");
            NVO_AUDIT(find(addr) == i,
                      "flat line map entry off its probe run");
        }
        NVO_AUDIT(entries == count,
                  "flat line map count disagrees with its slots");
    }

  private:
    struct Slot
    {
        Addr addr = invalidAddr;   ///< line address, or empty
        V value{};
    };

    static constexpr unsigned initialSlotsLog2 = 6;

    /** Home slot of @p line_addr in the current table. */
    std::size_t
    home(Addr line_addr) const
    {
        return static_cast<std::size_t>(
            ((line_addr >> lineBytesLog2) * 0x9e3779b97f4a7c15ull) >>
            shift);
    }

    /** Slot holding @p line_addr, or the empty slot ending its run. */
    std::size_t
    find(Addr line_addr) const
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = home(line_addr);
        // Load stays at most 1/2, so every probe run ends in an
        // empty slot.
        while (slots[i].addr != line_addr &&
               slots[i].addr != invalidAddr)
            i = (i + 1) & mask;
        return i;
    }

    /** Double the table and re-insert every entry. */
    void
    grow()
    {
        std::vector<Slot> old = std::exchange(slots, {});
        slots.resize(old.size() * 2);
        --shift;
        for (const Slot &s : old)
            if (s.addr != invalidAddr)
                slots[find(s.addr)] = s;
    }

    std::vector<Slot> slots;
    std::size_t count = 0;
    unsigned shift;   ///< 64 - log2(slots.size())
};

} // namespace nvo

#endif // NVO_COMMON_FLAT_LINE_MAP_HH
