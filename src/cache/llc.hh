/**
 * @file
 * One slice of the distributed, non-inclusive LLC plus its share of
 * the global coherence directory.
 *
 * Non-inclusive: a line may be cached above without being present in
 * the slice's data array, so the directory is kept in a separate
 * (idealized full-map) structure rather than in the LLC tags
 * (paper Sec. II-D motivates exactly this organization).
 */

#ifndef NVO_CACHE_LLC_HH
#define NVO_CACHE_LLC_HH

#include <cstdint>
#include <unordered_map>

#include "cache/cache_array.hh"
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

    /** Directory entry for @p line_addr, created on first touch. */
    DirEntry &dir(Addr line_addr);

    /** Directory entry if it exists, else nullptr. */
    DirEntry *dirProbe(Addr line_addr);

    /**
     * Invariant sweep (NVO_AUDIT): array structure is sound, no LLC
     * line carries L2-private sharer bits or a sealed payload, and
     * directory owners are listed among their entry's sharers.
     */
    void audit() const;

  private:
    CacheArray arr;
    Cycle lat;
    std::unordered_map<Addr, DirEntry> directory;
};

} // namespace nvo

#endif // NVO_CACHE_LLC_HH
