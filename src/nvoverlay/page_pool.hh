/**
 * @file
 * NVM overlay-page buffer pool (paper Sec. V-C).
 *
 * A contiguous NVM region is carved into 4 KB pages tracked by a
 * bitmap. Sparse overlay pages are stored compactly in power-of-two
 * sub-pages (1..64 lines) handed out by a buddy allocator layered on
 * the page bitmap. Each allocated sub-page carries a small persistent
 * header (source page address, epoch, slot map) that makes the NVM
 * image self-describing, which is what lets recovery rebuild the
 * volatile per-epoch tables.
 *
 * The headers live in a slab: fixed chunks of slots, each slot
 * naming its sub-page, with a stack of free slots. The epoch-table
 * page entry that owns a sub-page keeps its slot number (HeaderId),
 * so filling, rewriting and dropping a header is O(1), with no heap
 * node per header and no rehash.
 */

#ifndef NVO_NVOVERLAY_PAGE_POOL_HH
#define NVO_NVOVERLAY_PAGE_POOL_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "common/types.hh"
#include "mem/backing_store.hh"
#include "mem/persist_domain.hh"
#include "tenant/asid.hh"

namespace nvo
{

namespace obs
{
struct HistMetric;
} // namespace obs

class PagePool : private PersistDomain::Journal
{
  public:
    /** Max sub-page order: 2^6 lines = one full page. */
    static constexpr unsigned maxOrder = 6;

    /** Persistent sub-page header (self-describing NVM image). */
    struct SubPageHeader
    {
        Addr srcPage = invalidAddr;   ///< physical page this overlays
        EpochWide epoch = 0;
        std::uint8_t capacityLines = 0;
        std::uint8_t usedLines = 0;
        /** slot -> line-in-page map (compact storage order). */
        std::array<std::uint8_t, linesPerPage> slotLine{};
    };

    /** Slab slot of a sub-page header. */
    using HeaderId = std::uint32_t;
    static constexpr HeaderId noHeader = ~static_cast<HeaderId>(0);

    PagePool(Addr base_addr, std::uint64_t size_bytes);

    /**
     * Journal durable-state mutations (bitmap, image, headers) into
     * @p domain so a simulated crash can unwind the unfenced suffix.
     * Pool state *is* the modelled NVM content, so every mutator
     * stages an undo record while the domain is armed. The domain
     * must outlive the pool.
     */
    void attachPersist(PersistDomain *domain) { attachTo(domain); }

    /**
     * Allocate a sub-page of at least @p lines lines (rounded up to a
     * power of two) on behalf of tenant @p asid (per-tenant occupancy
     * accounting; asid 0 is untenanted). Returns invalidAddr when the
     * pool is exhausted.
     */
    Addr allocLines(unsigned lines, tenant::Asid asid);

    /** Return a sub-page of @p lines lines to the allocator,
     *  crediting tenant @p asid's occupancy. */
    void freeLines(Addr addr, unsigned lines, tenant::Asid asid);

    /** Grow the pool by @p pages pages (the OS granting more space). */
    void extend(std::uint64_t pages);

    /** NVM image content access. */
    void writeLine(Addr nvm_addr, const LineData &content);
    void readLine(Addr nvm_addr, LineData &out) const;

    /**
     * Write @p header as the persistent header of @p sub_page into
     * slab slot @p id, and return the slot: noHeader takes the newest
     * free slot (a new header), a live slot is rewritten in place.
     */
    HeaderId setHeader(HeaderId id, Addr sub_page,
                       const SubPageHeader &header);
    /** The live header in slot @p id; nullptr when the slot is free or
     *  @p id is noHeader. */
    const SubPageHeader *header(HeaderId id) const;
    /** The sub-page slot @p id describes; invalidAddr when free. */
    Addr headerSubPage(HeaderId id) const;
    /**
     * Slot @p slot of header @p id's sub-page now holds line
     * @p line_in_page: the header's fill becomes slot + 1. Journals
     * only those two fields.
     */
    void fillSlot(HeaderId id, unsigned slot, unsigned line_in_page);
    /** Free header @p id's slot. */
    void dropHeader(HeaderId id);

    /** Visit all live sub-page headers in slab order (recovery
     *  rebuild): fn(id, sub_page, header). */
    void forEachHeader(
        const std::function<void(HeaderId, Addr, const SubPageHeader &)>
            &fn) const;

    std::uint64_t totalPages() const { return numPages; }
    std::uint64_t pagesInUse() const { return usedPages; }
    std::uint64_t bytesAllocated() const { return allocatedBytes; }

    /** Lines currently allocated on behalf of tenant @p asid. */
    std::uint64_t
    linesInUse(tenant::Asid asid) const
    {
        auto it = asidLines.find(asid);
        return it == asidLines.end() ? 0 : it->second;
    }

    /** Visit every tenant with allocated lines: fn(asid, lines). */
    void forEachAsidLines(
        const std::function<void(tenant::Asid, std::uint64_t)> &fn)
        const;

    /** Round @p lines up to an allocatable power of two. */
    static unsigned roundLines(unsigned lines);

    /** True when the page containing @p addr is marked allocated. */
    bool pageAllocated(Addr addr) const;

    /**
     * Invariant sweep (NVO_AUDIT): the allocator never double-maps a
     * sub-page. Free blocks are aligned, lie inside allocated pages,
     * and overlap neither each other nor any live sub-page header;
     * every byte of an in-use page is accounted exactly once
     * (allocated + free-listed == usedPages * pageBytes); the
     * used-page count matches the bitmap population; every header
     * slab slot is either live or on the free list, exactly once.
     */
    void audit() const;

  private:
    // --- Persist journal: one record per staged mutation, each
    // holding the before-image its undo restores. A clear() at the
    // fence frees all but one block of each deque. ---

    /** Image line before a write. */
    struct LineUndo
    {
        Addr addr = invalidAddr;
        LineData old;
    };

    /** One slab slot: a live header and its sub-page, or a free slot
     *  (subPage == invalidAddr). */
    struct HeaderSlot
    {
        Addr subPage = invalidAddr;
        SubPageHeader hdr;
    };

    /** Header-slab change, by slot. A Rewritten or Dropped record's
     *  before-image is the newest entry of headerImages. */
    struct HeaderUndo
    {
        enum class Op : std::uint8_t
        {
            Taken,       ///< slot came off the free list: push it back
            Appended,    ///< slot was new at the slab's end: pop it
            Rewritten,   ///< restore the slot's whole before-image
            Dropped,     ///< re-take the slot, restore its before-image
            Filled       ///< restore usedLines and one slotLine entry
        };
        HeaderId id = noHeader;
        Op op = Op::Taken;
        std::uint8_t slot = 0;
        std::uint8_t usedLines = 0;
        std::uint8_t slotLine = 0;
    };

    /** Allocator operations and the operands their undos need. They
     *  share one stack: free-list pops depend on order. */
    struct PageUndo
    {
        std::uint64_t page = 0;       ///< page index set in the bitmap
        std::uint64_t scanHint = 0;   ///< hint before the scan
    };
    struct AllocUndo
    {
        Addr block = invalidAddr;
        tenant::Asid asid = 0;
        std::uint8_t order = 0;
        std::uint8_t srcOrder = 0;    ///< order the block was split from
        bool fromFreeList = false;    ///< else it came from a fresh page
    };
    struct FreeUndo
    {
        tenant::Asid asid = 0;
        std::uint8_t order = 0;
    };
    struct ExtendUndo
    {
        std::uint64_t pages = 0;
    };
    using AllocatorUndo =
        std::variant<PageUndo, AllocUndo, FreeUndo, ExtendUndo>;

    /** Stage @p rec; @p before, when non-null, is its before-image. */
    void stageHeader(const HeaderUndo &rec,
                     const HeaderSlot *before = nullptr);
    void stageAllocator(const AllocatorUndo &rec);
    void undo(const PageUndo &rec);
    void undo(const AllocUndo &rec);
    void undo(const FreeUndo &rec);
    void undo(const ExtendUndo &rec);
    void commit() override;
    void unwind() override;

    /** Take one fresh page from the bitmap. */
    Addr allocPage();

    /** Slab slot @p id (which must be below headerCount). */
    HeaderSlot &
    slotOf(HeaderId id)
    {
        return slab[id >> slabChunkLog2][id & (slabChunk - 1)];
    }
    const HeaderSlot &
    slotOf(HeaderId id) const
    {
        return slab[id >> slabChunkLog2][id & (slabChunk - 1)];
    }

    Addr base;
    /** Bitmap words probed per allocPage (scanHint effectiveness:
     *  p99 near 1 means the rotating hint works; a drifting p99
     *  means fragmentation is forcing long scans). */
    obs::HistMetric *hScan_ = nullptr;
    /** Tenant line accounting shared by alloc/free and their staged
     *  undos (so a crash unwind restores per-tenant occupancy too). */
    void chargeAsid(tenant::Asid asid, std::int64_t lines);

    std::uint64_t numPages;
    std::uint64_t usedPages = 0;
    std::uint64_t allocatedBytes = 0;
    /** Lines allocated per tenant (key absent == 0). */
    std::map<tenant::Asid, std::uint64_t> asidLines;
    std::vector<std::uint64_t> bitmap;
    std::uint64_t scanHint = 0;
    /** Free lists per order (order k = 2^k lines). */
    std::array<std::vector<Addr>, maxOrder + 1> freeLists;
    BackingStore image;
    /** Header slab: chunks of slabChunk slots, never moved, so the
     *  slab grows without copying and wastes at most one chunk. */
    static constexpr unsigned slabChunkLog2 = 8;
    static constexpr HeaderId slabChunk = HeaderId{1} << slabChunkLog2;
    std::vector<std::unique_ptr<HeaderSlot[]>> slab;
    /** Slots in use or free-listed: [0, headerCount). */
    HeaderId headerCount = 0;
    /** Free slots below headerCount, reused newest first. */
    std::vector<HeaderId> freeHeaders;
    std::deque<LineUndo> lineUndo;
    std::deque<HeaderUndo> headerUndo;
    std::deque<HeaderSlot> headerImages;
    std::deque<AllocatorUndo> allocatorUndo;
};

} // namespace nvo

#endif // NVO_NVOVERLAY_PAGE_POOL_HH
