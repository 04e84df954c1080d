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
 * through a flat page index (FlatLineMap keyed by page address) and
 * keeps one store seqno per slot of the page's sub-page, so a table
 * costs host memory in proportion to its pages and their sub-page
 * capacity.
 */

#ifndef NVO_NVOVERLAY_EPOCH_TABLE_HH
#define NVO_NVOVERLAY_EPOCH_TABLE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/flat_line_map.hh"
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

    struct PageEntry;

    /**
     * The NVM traffic one insert caused, for the caller to issue: the
     * relocation copies first, in slot order, then the data write.
     */
    struct Inserted
    {
        /** The version's slot, which takes its 64 B data write (a
         *  stale same-epoch re-insert still costs one). invalidAddr:
         *  the pool is exhausted and nothing was written. */
        Addr nvmAddr = invalidAddr;
        /** The page's new sub-page when the insert grew it, else
         *  invalidAddr. */
        Addr grownTo = invalidAddr;
        /** Slots 0..relocated-1 of grownTo received 64 B copies of
         *  the page's existing versions. */
        unsigned relocated = 0;
        /** Persistent sub-page header bytes written. */
        std::uint32_t metaBytes = 0;
        /** The version's page entry. */
        PageEntry *page = nullptr;
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
        /** The sub-page's persistent header, a slot of the pool's
         *  header slab (it fits the padding before slotSeq). */
        PagePool::HeaderId header = PagePool::noHeader;
        /** Seqno of the content stored in each of the sub-page's
         *  capacity slots: same-epoch re-insertions only overwrite
         *  with newer content (the interconnect delivers same-line
         *  writes in order; the walker's delayed drain must not
         *  clobber them). */
        std::unique_ptr<SeqNo[]> slotSeq;
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
     * Insert (or overwrite) the version of @p line_addr: write the
     * content into the pool and return the NVM traffic that took.
     * When the pool is exhausted nothing changes and nvmAddr is
     * invalidAddr (the caller must run compaction or extend the pool
     * and retry).
     */
    Inserted insert(Addr line_addr, SeqNo seq, const LineData &content);

    /** NVM address of this epoch's version of @p line_addr. */
    Addr lookupNvm(Addr line_addr) const;

    /** Read this epoch's version of @p line_addr. */
    bool readVersion(Addr line_addr, LineData &out) const;

    /** Visit every mapped version: fn(line_addr, nvm_addr, entry),
     *  the entry being the page entry that holds the version. */
    template <typename Fn>
    void
    forEachVersion(Fn &&fn)
    {
        for (const auto &pe : entries) {
            if (pe->reclaimed)
                continue;
            for (unsigned li = 0; li < linesPerPage; ++li) {
                if (!((pe->bitmap >> li) & 1ull))
                    continue;
                fn(pe->pageAddr + static_cast<Addr>(li) * lineBytes,
                   pe->subPage +
                       static_cast<Addr>(pe->lineSlot[li]) * lineBytes,
                   *pe);
            }
        }
    }

    /**
     * Reconstruct one overlay page from a persistent sub-page header
     * (post-crash rebuild of the volatile table, paper Sec. V-E:
     * "volatile OMC data structures are also rebuilt during the
     * recovery"). The header's slot map is authoritative; @p id is
     * its slab slot.
     */
    void adoptSubPage(PagePool::HeaderId id, Addr sub_page,
                      const PagePool::SubPageHeader &header);

    /** Visit every overlay page entry. */
    void forEachPage(const std::function<void(PageEntry &)> &fn);

    PageEntry *pageEntry(Addr page_addr);
    const PageEntry *pageEntry(Addr page_addr) const;

    std::uint64_t versionCount() const { return versions; }
    /** DRAM footprint of the modelled radix tree. */
    std::uint64_t tableBytes() const;

    /**
     * Invariant sweep (NVO_AUDIT): the page index holds exactly the
     * table's pages, every live overlay page maps into an allocated
     * pool sub-page whose persistent header agrees with the volatile
     * entry (source page, epoch, capacity, fill), the line bitmap
     * matches the slot count, and line->slot assignments are
     * injective within the sub-page capacity (Sec. V-C).
     */
    void audit() const;

  private:
    PageEntry *findEntry(Addr page_addr) const;
    PageEntry *findOrCreateEntry(Addr page_addr);

    /** Grow @p pe's sub-page, recording the relocation in @p ins;
     *  returns false if the pool is full. */
    bool grow(PageEntry &pe, Inserted &ins);

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
    FlatLineMap<PageEntry *> index;
    /** Modelled radix inner nodes below the root, one per distinct
     *  page-address prefix at bits 47..39, 47..30 and 47..21. */
    std::unordered_set<Addr> innerNodes;
};

} // namespace nvo

#endif // NVO_NVOVERLAY_EPOCH_TABLE_HH
