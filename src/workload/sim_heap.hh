/**
 * @file
 * Simulated-address-space allocator.
 *
 * Workload data structures live in host memory, but every node also
 * has a *simulated physical address* so the reference stream fed to
 * the cache hierarchy has realistic layout and locality. SimHeap is a
 * simple per-arena bump allocator; giving each thread its own arena
 * keeps private allocations on private pages (no accidental false
 * sharing), while shared structures allocate from a common arena.
 */

#ifndef NVO_WORKLOAD_SIM_HEAP_HH
#define NVO_WORKLOAD_SIM_HEAP_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace nvo
{

class SimHeap
{
  public:
    /** Arena 0 is the shared arena; 1..n are per-thread arenas. */
    SimHeap(unsigned num_arenas = 17,
            Addr base = 1ull << 32,
            std::uint64_t arena_bytes = 1ull << 28);

    /** Allocate @p size bytes (aligned to @p align) in @p arena. */
    Addr alloc(unsigned arena, std::uint64_t size,
               std::uint64_t align = 8);

    /** Allocate cache-line aligned. */
    Addr
    allocLines(unsigned arena, std::uint64_t lines)
    {
        return alloc(arena, lines * lineBytes, lineBytes);
    }

    std::uint64_t allocatedBytes(unsigned arena) const;
    std::uint64_t totalAllocated() const;

  private:
    Addr base_;
    std::uint64_t arenaBytes;
    std::vector<Addr> cursors;
};

} // namespace nvo

#endif // NVO_WORKLOAD_SIM_HEAP_HH
