/**
 * @file
 * One slice of the distributed, non-inclusive LLC plus its share of
 * the global coherence directory.
 *
 * Non-inclusive: a line may be cached above without being present in
 * the slice's data array, so the directory is kept in a separate
 * (idealized full-map) structure rather than in the LLC tags
 * (paper Sec. II-D motivates exactly this organization).
 *
 * The directory lists exactly the lines some L2 holds: an entry is
 * created when a VD fetches the line and erased when its last sharer
 * VD lets the line go, so the slice never holds more entries than
 * there are L2 slots (Hierarchy::checkInvariants checks both
 * directions). The entries live in a FlatLineMap
 * (common/flat_line_map.hh): a flat open-addressing table keyed by
 * line address, with a scrambling multiplicative hash, linear probing,
 * backward-shift deletion (no tombstones), and doubling at load 1/2
 * from a small start.
 */

#ifndef NVO_CACHE_LLC_HH
#define NVO_CACHE_LLC_HH

#include <cstdint>

#include "cache/cache_array.hh"
#include "common/flat_line_map.hh"
#include "common/types.hh"

namespace nvo
{

/** Directory entry: which VDs cache the line and who owns it. */
struct DirEntry
{
    std::uint32_t sharerVds = 0;   ///< bitmask of VDs with a copy
    int ownerVd = -1;              ///< VD holding E/M, or -1

    bool
    isSharer(unsigned vd) const
    {
        return (sharerVds >> vd) & 1u;
    }
    void addSharer(unsigned vd) { sharerVds |= 1u << vd; }
    void removeSharer(unsigned vd) { sharerVds &= ~(1u << vd); }
};

class LlcSlice
{
  public:
    struct Params
    {
        std::uint64_t sliceBytes = 8 * 1024 * 1024;
        unsigned ways = 16;
        Cycle latency = 30;
    };

    explicit LlcSlice(const Params &params);

    CacheArray &array() { return arr; }
    Cycle latency() const { return lat; }

    /**
     * Directory entry for @p line_addr, created as {no sharer, no
     * owner} on first touch. The reference stays valid only until the
     * next dir() or dirErase() on this slice: either may move entries.
     */
    DirEntry &dir(Addr line_addr) { return table[line_addr]; }

    /** Directory entry if it exists, else nullptr (same lifetime). */
    DirEntry *dirProbe(Addr line_addr) { return table.probe(line_addr); }
    const DirEntry *
    dirProbe(Addr line_addr) const
    {
        return table.probe(line_addr);
    }

    /** Erase @p line_addr's entry, which must exist. */
    void dirErase(Addr line_addr) { table.erase(line_addr); }

    /** Visit every directory entry as (line address, entry). */
    template <typename Fn>
    void
    forEachDir(Fn &&fn) const
    {
        table.forEach(fn);
    }

    /**
     * Invariant sweep (NVO_AUDIT): array structure is sound, no LLC
     * line carries L2-private sharer bits or a sealed payload, every
     * directory entry sits on the probe run of its hash with a sharer
     * and with its owner among the sharers, and the running entry
     * count matches the table.
     */
    void audit() const;

  private:
    CacheArray arr;
    Cycle lat;
    FlatLineMap<DirEntry> table;
};

} // namespace nvo

#endif // NVO_CACHE_LLC_HH
