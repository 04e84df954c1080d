/**
 * @file
 * Per-epoch overlay mapping table (paper Sec. V-C).
 *
 * One instance exists per (OMC partition, epoch). The modelled
 * hardware table is a volatile 4-level radix tree keyed by the 48-bit
 * physical address (9 bits per level, bits 47..12) whose leaves
 * describe one overlay page each — a bitmap of the lines versioned in
 * this epoch plus the NVM sub-page that stores them compactly. Sparse
 * pages occupy power-of-two sub-pages and are relocated to the next
 * size when they outgrow one (Page Overlays Sec. 4.4 behaviour).
 *
 * The radix exists only as a footprint: tableBytes() counts its
 * 4 KiB nodes and 16 B leaves exactly, while the host finds a page
 * through a page-keyed hash index, so a table costs host memory in
 * proportion to the pages it maps.
 */

#ifndef NVO_NVOVERLAY_EPOCH_TABLE_HH
#define NVO_NVOVERLAY_EPOCH_TABLE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/fn_ref.hh"
#include "common/types.hh"
#include "mem/backing_store.hh"
#include "nvoverlay/page_pool.hh"

namespace nvo
{

namespace obs
{
struct HistMetric;
} // namespace obs

class EpochTable
{
  public:
    struct Params
    {
        /** Initial sub-page capacity in lines (power of two). */
        unsigned initLines = 4;
        /** Capacity multiplier on overflow. */
        unsigned growthFactor = 4;
    };

    /**
     * Sinks for the NVM traffic this table generates: references to
     * callables the caller keeps alive across the insert (an empty
     * sink drops its traffic).
     */
    struct Sinks
    {
        /** Version data written to NVM (absorbed by the OMC buffer
         *  when one is present). */
        FnRef<void(Addr nvm_addr, std::uint32_t bytes)> data;
        /** Sub-page relocation copies (always hit the device; counted
         *  as data when empty). */
        FnRef<void(Addr nvm_addr, std::uint32_t bytes)> reloc;
        /** Persistent sub-page header metadata written to NVM. */
        FnRef<void(std::uint32_t bytes)> meta;
    };

    /** Leaf descriptor for one overlay page. */
    struct PageEntry
    {
        Addr pageAddr = invalidAddr;
        std::uint64_t bitmap = 0;       ///< lines present in this epoch
        Addr subPage = invalidAddr;     ///< NVM storage
        std::uint8_t capacity = 0;      ///< sub-page capacity (lines)
        std::uint8_t used = 0;
        std::array<std::uint8_t, linesPerPage> lineSlot{};
        /** Seqno of the content stored in each slot: same-epoch
         *  re-insertions only overwrite with newer content (the
         *  interconnect delivers same-line writes in order; the
         *  walker's delayed drain must not clobber them). */
        std::array<SeqNo, linesPerPage> slotSeq{};
        /** Lines still referenced by the master table (GC refcount). */
        std::uint32_t liveMaster = 0;
        bool reclaimed = false;
    };

    /**
     * @p footprint, when non-null, is a running total this table keeps
     * its tableBytes() added into for its whole lifetime (the owning
     * OMC partition sums its tables this way).
     */
    EpochTable(EpochWide e, PagePool &page_pool, const Params &params,
               std::uint64_t *footprint = nullptr);
    ~EpochTable();

    EpochTable(const EpochTable &) = delete;
    EpochTable &operator=(const EpochTable &) = delete;

    EpochWide epochId() const { return epoch_; }

    /**
     * Insert (or overwrite) the version of @p line_addr. Writes the
     * content into the pool and reports NVM traffic through
     * @p sinks. Returns false when the pool is exhausted (the caller
     * must run compaction or extend the pool and retry).
     */
    bool insert(Addr line_addr, SeqNo seq, const LineData &content,
                const Sinks &sinks);

    /** NVM address of this epoch's version of @p line_addr. */
    Addr lookupNvm(Addr line_addr) const;

    /** Read this epoch's version of @p line_addr. */
    bool readVersion(Addr line_addr, LineData &out) const;

    /** Visit every mapped version: fn(line_addr, nvm_addr). */
    void forEachVersion(
        const std::function<void(Addr, Addr)> &fn) const;

    /**
     * Reconstruct one overlay page from a persistent sub-page header
     * (post-crash rebuild of the volatile table, paper Sec. V-E:
     * "volatile OMC data structures are also rebuilt during the
     * recovery"). The header's slot map is authoritative.
     */
    void adoptSubPage(Addr sub_page,
                      const PagePool::SubPageHeader &header);

    /** Visit every overlay page entry. */
    void forEachPage(const std::function<void(PageEntry &)> &fn);

    PageEntry *pageEntry(Addr page_addr);
    const PageEntry *pageEntry(Addr page_addr) const;

    std::uint64_t versionCount() const { return versions; }
    /** DRAM footprint of the modelled radix tree. */
    std::uint64_t tableBytes() const;

    /**
     * Invariant sweep (NVO_AUDIT): every live overlay page maps into
     * an allocated pool sub-page whose persistent header agrees with
     * the volatile entry (source page, epoch, capacity, fill), the
     * line bitmap matches the slot count, and line->slot assignments
     * are injective within the sub-page capacity (Sec. V-C).
     */
    void audit() const;

  private:
    PageEntry *findEntry(Addr page_addr) const;
    PageEntry *findOrCreateEntry(Addr page_addr);

    /** Grow @p pe's sub-page; returns false if the pool is full. */
    bool grow(PageEntry &pe, const Sinks &sinks);

    EpochWide epoch_;
    PagePool &pool;
    Params p;
    /** Walk-depth histogram (nodes visited + nodes allocated per
     *  findOrCreateEntry); shared across epochs via the registry's
     *  name dedup, so per-epoch construction stays cheap. */
    obs::HistMetric *hWalk_ = nullptr;
    /** Running total tableBytes() is kept added into (or nullptr). */
    std::uint64_t *footprint_;
    std::uint64_t versions = 0;
    /** Overlay pages in insertion order (iteration order). */
    std::vector<std::unique_ptr<PageEntry>> entries;
    /** Host lookup index: page address -> its entry. */
    std::unordered_map<Addr, PageEntry *> index;
    /** Modelled radix inner nodes below the root, one per distinct
     *  page-address prefix at bits 47..39, 47..30 and 47..21. */
    std::unordered_set<Addr> innerNodes;
};

} // namespace nvo

#endif // NVO_NVOVERLAY_EPOCH_TABLE_HH
