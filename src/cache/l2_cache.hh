/**
 * @file
 * Per-VD shared, inclusive L2 cache. Besides the tag/data array it
 * carries the intra-VD directory (each line's `sharers` field is a
 * bitmask of the local L1s holding a copy) and the tag walk's walk set
 * (the array's marked slots: a slot is marked when its line enters M).
 */

#ifndef NVO_CACHE_L2_CACHE_HH
#define NVO_CACHE_L2_CACHE_HH

#include <cstdint>

#include "cache/cache_array.hh"
#include "common/types.hh"

namespace nvo
{

class L2Cache
{
  public:
    struct Params
    {
        std::uint64_t sizeBytes = 256 * 1024;
        unsigned ways = 8;
        Cycle latency = 8;
    };

    L2Cache(const Params &params, unsigned vd_id, unsigned cores_per_vd);

    CacheArray &array() { return arr; }
    const CacheArray &array() const { return arr; }
    Cycle latency() const { return lat; }
    unsigned vdId() const { return vd; }
    unsigned coresPerVd() const { return localCores; }

    /** Local L1 index (0..coresPerVd-1) for a global core id. */
    unsigned localIdx(unsigned core_id) const;

    static void addSharer(CacheLine &line, unsigned local_idx);
    static void removeSharer(CacheLine &line, unsigned local_idx);
    static bool hasSharer(const CacheLine &line, unsigned local_idx);

    /**
     * Put @p line in M and add its slot to the walk set. Every
     * transition of an L2 line into M goes through here: only a line
     * in M can hold a version the tag walk collects, so the walk
     * visits marked slots only (Hierarchy::tagWalkScan).
     */
    void setModified(CacheLine &line);

    /**
     * Call @p fn on every line in M, in slot order (the order of
     * CacheArray::forEachValid), visiting only the walk set. @p fn may
     * take the line out of M; a line it leaves in M stays in the set.
     */
    template <typename Fn>
    void
    forEachModified(Fn &&fn)
    {
        arr.forEachMarked([&](CacheLine &line) {
            if (line.state != CohState::M)
                return;   // left M since it was marked
            fn(line);
            if (line.state == CohState::M)
                arr.mark(line);
        });
    }

    /** Count a fill into a previously invalid slot. */
    void countFill() { ++validSlots; }

    /** Invalidate @p line (external invalidation) and uncount it. */
    void invalidate(CacheLine &line);

    /** Valid slots, kept as a running count (no array scan). */
    unsigned numValid() const { return validSlots; }

    /**
     * Invariant sweep (NVO_AUDIT): array structure is sound, sharer
     * masks stay within the VD's local L1 population, sealed
     * versions are dirty (a sealed payload is an immutable old-epoch
     * version awaiting write-back, Fig. 4), the running valid count
     * matches the array, and every line in M is in the walk set.
     */
    void audit() const;

  private:
    CacheArray arr;
    Cycle lat;
    unsigned vd;
    unsigned localCores;
    unsigned validSlots = 0;
};

} // namespace nvo

#endif // NVO_CACHE_L2_CACHE_HH
