/**
 * @file
 * Workload framework (paper Sec. VI-C).
 *
 * Twelve workloads drive the evaluation: four data-structure bulk
 * inserts (hash table, B+Tree, ART, red-black tree) and eight
 * STAMP-style kernels (labyrinth, bayes, yada, intruder, vacation,
 * kmeans, genome, ssca2). Each is a RefSource: the harness asks a
 * thread for its next logical operation, which it emits as a batch of
 * memory references over simulated addresses. Real data-structure
 * logic runs in host memory so the reference streams have authentic
 * shape (descents, shifts, splits, chains, rebalances).
 */

#ifndef NVO_WORKLOAD_WORKLOAD_HH
#define NVO_WORKLOAD_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/memref.hh"
#include "workload/sim_heap.hh"

namespace nvo
{

/** Common base: per-thread op counting, RNG, heap, ref emission. */
class WorkloadBase : public RefSource
{
  public:
    struct Params
    {
        unsigned numThreads = 16;
        std::uint64_t opsPerThread = 4096;
        std::uint64_t seed = 1;
        /** Default non-memory instruction gap per reference. */
        std::uint32_t gap = 32;
    };

    WorkloadBase(const Params &params);

    bool nextOp(unsigned thread, std::vector<MemRef> &out) final;

    virtual const char *name() const = 0;

    /** Per-thread operation generator. */
    virtual void genOp(unsigned thread, std::vector<MemRef> &out) = 0;

    /**
     * True when genOp(thread, ...) touches nothing but that thread's
     * own state (its Rng, cursor, arena) and constant members, so a
     * thread's batches may be generated ahead of, or apart from, the
     * other threads' execution without changing any result.
     * Workloads whose generator reads or writes shared host
     * structures (the B+Tree nodes, a hash set, ...) must leave this
     * false: their generation order is globally visible.
     */
    virtual bool independentGen() const { return false; }

    std::uint64_t opsCompleted() const;
    const Params &params() const { return p; }

  protected:
    /** Shared arena id. */
    static constexpr unsigned sharedArena = 0;
    /** Arena for @p thread's private allocations. */
    unsigned
    arenaOf(unsigned thread) const
    {
        return thread + 1;
    }

    void
    ld(std::vector<MemRef> &out, Addr a) const
    {
        out.push_back(MemRef::ld(a, p.gap));
    }

    void
    st(std::vector<MemRef> &out, Addr a) const
    {
        out.push_back(MemRef::st(a, p.gap));
    }

    /** Touch @p bytes starting at @p a, one reference per line. */
    void ldRange(std::vector<MemRef> &out, Addr a,
                 std::uint64_t bytes) const;
    void stRange(std::vector<MemRef> &out, Addr a,
                 std::uint64_t bytes) const;

    /** Emit lock-acquire / release references (shared lock word). */
    void lockRefs(std::vector<MemRef> &out, Addr lock_addr) const;
    void unlockRefs(std::vector<MemRef> &out, Addr lock_addr) const;

    Params p;
    SimHeap heap;
    std::vector<Rng> rng;            ///< one per thread
    std::vector<std::uint64_t> opsDone;
};

/**
 * Factory. Valid names: hashtable, btree, art, rbtree, labyrinth,
 * bayes, yada, intruder, vacation, kmeans, genome, ssca2,
 * kv_service, phased (phase-shift wrapper, workload/phase_shift.hh).
 * Reads sizing knobs from @p cfg ("wl.threads", "wl.ops", "wl.seed",
 * plus per-workload keys documented in each implementation).
 */
std::unique_ptr<WorkloadBase> makeWorkload(const std::string &name,
                                           const Config &cfg);

/** The twelve paper workloads in Fig. 11 order. */
const std::vector<std::string> &paperWorkloads();

} // namespace nvo

#endif // NVO_WORKLOAD_WORKLOAD_HH
