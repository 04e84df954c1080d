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
 */

#ifndef NVO_NVOVERLAY_PAGE_POOL_HH
#define NVO_NVOVERLAY_PAGE_POOL_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
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

    /** Persistent header bookkeeping. */
    void setHeader(Addr sub_page, const SubPageHeader &header);
    const SubPageHeader *header(Addr sub_page) const;
    /**
     * Slot @p slot of @p sub_page now holds line @p line_in_page: the
     * header's fill becomes slot + 1. Journals only those two fields.
     * No-op when the sub-page has no header.
     */
    void fillSlot(Addr sub_page, unsigned slot, unsigned line_in_page);
    void dropHeader(Addr sub_page);

    /** Visit all live sub-page headers (recovery rebuild). */
    void forEachHeader(
        const std::function<void(Addr, const SubPageHeader &)> &fn)
        const;

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

    /** Fraction of pool pages currently holding data. */
    double
    utilization() const
    {
        return numPages ? static_cast<double>(usedPages) / numPages
                        : 0.0;
    }

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
     * used-page count matches the bitmap population.
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

    /** Header-map change. A Whole record's before-image is the
     *  newest entry of headerImages. */
    struct HeaderUndo
    {
        enum class Op : std::uint8_t
        {
            Absent,   ///< no header before: erase it
            Whole,    ///< restore the whole before-image
            Slot      ///< restore usedLines and one slotLine entry
        };
        Addr subPage = invalidAddr;
        Op op = Op::Absent;
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

    /** Stage the header change at @p sub_page, whose current header
     *  is @p old (nullptr when absent). */
    void stageHeader(Addr sub_page, const SubPageHeader *old);
    void stageAllocator(const AllocatorUndo &rec);
    void undo(const PageUndo &rec);
    void undo(const AllocUndo &rec);
    void undo(const FreeUndo &rec);
    void undo(const ExtendUndo &rec);
    void commit() override;
    void unwind() override;

    /** Take one fresh page from the bitmap. */
    Addr allocPage();

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
    std::unordered_map<Addr, SubPageHeader> headers;
    std::deque<LineUndo> lineUndo;
    std::deque<HeaderUndo> headerUndo;
    std::deque<SubPageHeader> headerImages;
    std::deque<AllocatorUndo> allocatorUndo;
};

} // namespace nvo

#endif // NVO_NVOVERLAY_PAGE_POOL_HH
