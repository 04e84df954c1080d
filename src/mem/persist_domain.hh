/**
 * @file
 * Persistence-domain model: the explicit durable/volatile boundary of
 * the NVM subsystem.
 *
 * The paper's durable structures — the master mapping table, the
 * overlay data pages, and the page-pool bitmap (Sec. V-C) — are
 * modelled functionally in DRAM, so without help a simulated crash
 * cannot lose anything. The PersistDomain makes the boundary real:
 *
 *  - every durable-structure mutation is applied to the modelled
 *    state immediately (reads must see it) and *staged* as an undo
 *    record in an in-flight write queue;
 *  - a persist `barrier()` (the protocol's ordering points: rec-epoch
 *    persist, late-merge patches, compaction passes, clean shutdown)
 *    drains the queue into the durable array — records become
 *    unloseable;
 *  - a crash calls `truncateToDurable()`, which unwinds the in-flight
 *    suffix in reverse order, restoring exactly the durable prefix.
 *
 * Device writes of durable structures are routed through `write()`,
 * which forwards to the owning NvmModel's timing model; this is the
 * single sanctioned raw-NVM-write path for `src/nvoverlay/` and
 * `src/repl/` (enforced by nvo_check's persist-domain rule).
 *
 * Staging costs one closure per mutation, so the domain is `arm()`ed
 * only for crash campaigns and tests (`persist.armed`); disarmed, the
 * hooks are one branch and all mutations count as durable instantly.
 */

#ifndef NVO_MEM_PERSIST_DOMAIN_HH
#define NVO_MEM_PERSIST_DOMAIN_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "mem/nvm_model.hh"

namespace nvo
{

class PersistDomain
{
  public:
    /** Which durable structure a staged record mutates. */
    enum class Kind : unsigned
    {
        PoolData = 0,   ///< overlay data page content
        PoolHeader,     ///< self-describing sub-page headers
        PoolBitmap,     ///< page bitmap / buddy allocator state
        Master,         ///< master mapping table entries
        RecEpoch,       ///< the persisted rec-epoch word
        NumKinds
    };

    using Undo = std::function<void()>;

    explicit PersistDomain(NvmModel &nvm_model) : nvm(nvm_model) {}

    /** Route a durable-structure device write to the NVM model. */
    NvmModel::Issue
    write(Addr addr, std::uint32_t bytes, Cycle now, NvmWriteKind kind)
    {
        return nvm.write(addr, bytes, now, kind);
    }

    /** Start journaling undo records (crash campaigns, tests). */
    void arm() { armed_ = true; }

    bool armed() const { return armed_; }

    /**
     * Record a durable-structure mutation that has been applied to
     * the modelled state but not yet fenced. @p undo must restore the
     * pre-mutation state assuming every later record was already
     * undone (records unwind in reverse staging order).
     */
    void stage(Kind kind, Undo undo);

    /** Persist fence: the whole in-flight queue becomes durable. */
    void barrier();

    /** Crash: unwind the in-flight suffix, newest record first. */
    void truncateToDurable();

    // --- Introspection (stats, tests) ---

    std::size_t inFlight() const { return queue.size(); }
    std::uint64_t stagedTotal() const { return staged_; }
    std::uint64_t durableTotal() const { return durable_; }
    std::uint64_t truncatedTotal() const { return truncated_; }
    std::uint64_t barriers() const { return barriers_; }

    std::uint64_t
    stagedByKind(Kind kind) const
    {
        return stagedKind[static_cast<unsigned>(kind)];
    }

  private:
    struct Record
    {
        Kind kind;
        Undo undo;
    };

    NvmModel &nvm;
    bool armed_ = false;
    std::vector<Record> queue;
    std::uint64_t staged_ = 0;
    std::uint64_t durable_ = 0;
    std::uint64_t truncated_ = 0;
    std::uint64_t barriers_ = 0;
    std::array<std::uint64_t,
               static_cast<std::size_t>(Kind::NumKinds)>
        stagedKind{};
};

} // namespace nvo

#endif // NVO_MEM_PERSIST_DOMAIN_HH
