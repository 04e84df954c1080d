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
 *    state immediately (reads must see it) and *staged*: the mutated
 *    structure's Journal keeps an undo record by value (the key it
 *    mutated plus that key's before-image) and the domain counts the
 *    record in flight;
 *  - a persist `barrier()` (the protocol's ordering points: rec-epoch
 *    persist, late-merge patches, compaction passes, clean shutdown)
 *    commits every journal — its records become unloseable and their
 *    storage is released;
 *  - a crash calls `truncateToDurable()`, which unwinds every
 *    journal newest record first, restoring exactly the durable
 *    prefix. Journals restore disjoint state (pool image lines, the
 *    sub-page header map, the allocator, one master tree each), so
 *    unwinding them one after another equals one global newest-first
 *    unwind.
 *
 * Device writes of durable structures are routed through `write()`,
 * which forwards to the owning NvmModel's timing model; this is the
 * single sanctioned raw-NVM-write path for `src/nvoverlay/` and
 * `src/repl/` (enforced by nvo_check's persist-domain rule).
 *
 * Staging copies one small record (at most a line or a sub-page
 * header of before-image) onto a std::deque, which allocates only per
 * block of records and frees its blocks at the fence. The in-flight
 * records still cost host memory and time, so the domain is `arm()`ed
 * only for crash campaigns and tests (`persist.armed`); disarmed, the
 * hooks are one branch and all mutations count as durable instantly.
 */

#ifndef NVO_MEM_PERSIST_DOMAIN_HH
#define NVO_MEM_PERSIST_DOMAIN_HH

#include <array>
#include <cstddef>
#include <cstdint>
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
        NumKinds
    };

    /**
     * A durable structure's own undo records, driven by the domain it
     * attaches to. While that domain is armed the structure keeps one
     * record per mutation and counts it with staged(). A journal
     * detaches when it dies; the domain must outlive it.
     */
    class Journal
    {
      public:
        /** A fence made every record durable: drop them all. */
        virtual void commit() = 0;
        /** Crash: restore every before-image, newest record first,
         *  and drop the records. */
        virtual void unwind() = 0;

      protected:
        Journal() = default;
        Journal(const Journal &) = delete;
        Journal &operator=(const Journal &) = delete;
        ~Journal() { attachTo(nullptr); }

        /** Journal into @p domain from now on (nullptr: none). */
        void attachTo(PersistDomain *domain);

        /** An armed domain is attached: mutations keep records. */
        bool journaling() const { return domain && domain->armed(); }

        /** Count the record a mutation of @p kind just kept. */
        void staged(Kind kind) { domain->stage(kind); }

      private:
        PersistDomain *domain = nullptr;
    };

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

    /** Persist fence: every in-flight record becomes durable. */
    void barrier();

    /** Crash: unwind the in-flight suffix, newest record first. */
    void truncateToDurable();

    // --- Introspection (stats, tests) ---

    std::size_t inFlight() const { return inFlight_; }
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
    /**
     * Count one record a journal kept while armed, for a mutation
     * that has been applied to the modelled state but not yet fenced.
     */
    void
    stage(Kind kind)
    {
        ++staged_;
        ++inFlight_;
        ++stagedKind[static_cast<unsigned>(kind)];
    }

    NvmModel &nvm;
    bool armed_ = false;
    std::vector<Journal *> journals;
    std::size_t inFlight_ = 0;
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
