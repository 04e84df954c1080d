/**
 * @file
 * Generic set-associative tag/data array with LRU replacement.
 *
 * All cache levels (and the scheme-private tag arrays of the PiCL
 * baselines) are built on this container. Lookup is by full line
 * address; unlike the original Page Overlays design, NVOverlay looks
 * up by address only, never by (address, OID) pairs (paper
 * Sec. IV-A1), so one address occupies at most one slot per array.
 *
 * A fill scans its set once: allocSlot picks the slot (and checks
 * that the address is absent in the same pass), the caller handles
 * the victim, and install() claims the slot and makes it MRU without
 * another scan. Besides the lines the array keeps one mark bit per
 * slot, for callers that walk a sparse subset of slots (the L2's
 * modified lines for the tag walk, PiCL's dirty lines).
 */

#ifndef NVO_CACHE_CACHE_ARRAY_HH
#define NVO_CACHE_CACHE_ARRAY_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cache/coherence.hh"
#include "common/bitutil.hh"
#include "common/types.hh"

namespace nvo
{

class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways associativity
     */
    CacheArray(std::uint64_t size_bytes, unsigned ways);

    /** Find the line holding @p line_addr, or nullptr. Bumps LRU. */
    CacheLine *lookup(Addr line_addr);

    /** Find without touching replacement state. */
    CacheLine *probe(Addr line_addr);
    const CacheLine *probe(Addr line_addr) const;

    /**
     * Pick a slot for @p line_addr in its set: the first invalid way,
     * else the first way with the smallest replacement stamp (LRU).
     * The caller must handle the returned slot's previous content
     * (the victim) and then install() it. @p line_addr must not
     * already be present; the one scan of the set checks that too.
     */
    CacheLine *allocSlot(Addr line_addr);

    /**
     * Claim @p slot (from allocSlot, victim already handled) for
     * @p line_addr: reset it, set its address and make it MRU, as a
     * lookup hit would. The state and version fields stay reset.
     */
    void install(CacheLine *slot, Addr line_addr);

    /** Invalidate (reset) a line previously returned by lookup. */
    void invalidate(CacheLine *line);

    unsigned numSets() const { return sets; }
    unsigned numWays() const { return ways_; }
    std::uint64_t sizeBytes() const
    {
        return static_cast<std::uint64_t>(sets) * ways_ * lineBytes;
    }

    /** Number of currently valid lines. */
    unsigned numValid() const;

    /** First way of set @p set_idx; the sets lie back to back. */
    CacheLine *setBase(unsigned set_idx);

    /** Visit every valid line, in slot order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (auto &line : lines)
            if (line.valid())
                fn(line);
    }

    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const auto &line : lines)
            if (line.valid())
                fn(line);
    }

    /** Add @p line's slot to the marked set. */
    void
    mark(const CacheLine &line)
    {
        const std::size_t idx = slotOf(line);
        marks[idx / 64] |= std::uint64_t(1) << (idx % 64);
        markedWords[idx / 4096] |= std::uint64_t(1) << (idx / 64 % 64);
    }

    /** True when @p line's slot is in the marked set. */
    bool
    marked(const CacheLine &line) const
    {
        const std::size_t idx = slotOf(line);
        return (marks[idx / 64] >> (idx % 64)) & 1u;
    }

    /**
     * Take every marked slot out of the set and call @p fn on it, in
     * ascending slot order (the order of forEachValid). A mark names
     * a slot, not a line: the slot may have been invalidated or
     * refilled since, so @p fn checks what it finds. @p fn may mark
     * the slot again; it is not revisited in this pass.
     */
    template <typename Fn>
    void
    forEachMarked(Fn &&fn)
    {
        for (std::size_t s = 0; s < markedWords.size(); ++s) {
            for (std::uint64_t words = std::exchange(markedWords[s], 0);
                 words != 0; words &= words - 1) {
                const std::size_t w = s * 64 + std::countr_zero(words);
                for (std::uint64_t bits = std::exchange(marks[w], 0);
                     bits != 0; bits &= bits - 1)
                    fn(lines[w * 64 + std::countr_zero(bits)]);
            }
        }
    }

    /**
     * Structural invariant sweep (NVO_AUDIT): every valid line sits
     * in the set its address hashes to, no address occupies two ways
     * of a set (NVOverlay looks up by address only, paper Sec. IV-A1),
     * and replacement stamps never run ahead of the LRU clock.
     */
    void audit() const;

  private:
    unsigned setOf(Addr line_addr) const;

    std::size_t
    slotOf(const CacheLine &line) const
    {
        return static_cast<std::size_t>(&line - lines.data());
    }

    unsigned sets;
    unsigned ways_;
    std::uint64_t lruClock = 0;
    std::vector<CacheLine> lines;
    std::vector<std::uint64_t> marks;   ///< one bit per slot
    /** One bit per word of `marks`, set while the word may be nonzero,
     *  so a pass costs the marked slots, not the slot count. */
    std::vector<std::uint64_t> markedWords;
};

} // namespace nvo

#endif // NVO_CACHE_CACHE_ARRAY_HH
