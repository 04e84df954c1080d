#include "nvoverlay/epoch_table.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/bitutil.hh"
#include "common/log.hh"
#include "obs/registry.hh"

namespace nvo
{

namespace
{

/** Modelled radix node: 512 x 8 B child pointers. */
constexpr std::uint64_t nodeBytes = 4096;
/** Modelled leaf descriptor: bitmap + sub-page pointer. */
constexpr std::uint64_t leafBytes = 16;
/** Below the root, a page hangs under one modelled node per level:
 *  the level 1, 2 and 3 nodes are named by its address bits 47..39,
 *  47..30 and 47..21. */
constexpr unsigned innerNodeShifts[] = {39, 30, 21};

/** innerNodes key of the node naming @p page_addr's bits above
 *  @p shift: that prefix, tagged in its (zero) low bits with the
 *  shift so that prefixes of different levels never collide. */
Addr
innerNodeKey(Addr page_addr, unsigned shift)
{
    return (page_addr >> shift << shift) | shift;
}

} // namespace

EpochTable::EpochTable(EpochWide e, PagePool &page_pool,
                       const Params &params, std::uint64_t *footprint)
    : epoch_(e), pool(page_pool), p(params),
      hWalk_(obs::metricRegistry().addHist("mnm.insert_walk_depth")),
      footprint_(footprint)
{
    nvo_assert(isPow2(p.initLines) && p.initLines >= 1 &&
               p.initLines <= linesPerPage);
    nvo_assert(p.growthFactor >= 2);
    if (footprint_)
        *footprint_ += tableBytes();
}

EpochTable::~EpochTable()
{
    if (footprint_)
        *footprint_ -= tableBytes();
}

EpochTable::PageEntry *
EpochTable::findEntry(Addr page_addr) const
{
    PageEntry *const *pe = index.probe(page_addr);
    return pe ? *pe : nullptr;
}

EpochTable::PageEntry *
EpochTable::findOrCreateEntry(Addr page_addr)
{
    // The modelled radix keys on bits 47..12 only; a wider address
    // would alias another page in the hardware table.
    nvo_assert(page_addr >> 48 == 0,
               "page address does not fit the 48-bit table key");
    PageEntry *&pe = index[page_addr];
    unsigned allocated = 0;
    if (!pe) {
        unsigned nodes = 0;
        for (unsigned shift : innerNodeShifts)
            nodes += innerNodes.insert(innerNodeKey(page_addr, shift))
                         .second;
        entries.push_back(std::make_unique<PageEntry>());
        entries.back()->pageAddr = page_addr;
        pe = entries.back().get();
        if (footprint_)
            *footprint_ += nodes * nodeBytes + leafBytes;
        allocated = nodes + 1;
    }
    // Fixed-depth radix: 4 nodes visited, plus one "cost" unit per
    // node/leaf allocated on the way down.
    NVO_METRIC(record(hWalk_, 4 + allocated));
    return pe;
}

bool
EpochTable::grow(PageEntry &pe, Inserted &ins)
{
    unsigned new_cap = pe.capacity == 0
                           ? p.initLines
                           : std::min<unsigned>(
                                 pe.capacity * p.growthFactor,
                                 linesPerPage);
    // The overlay page's tag names the tenant whose quota this
    // sub-page counts against.
    const tenant::Asid asid = tenant::asidOf(pe.pageAddr);
    Addr fresh = pool.allocLines(new_cap, asid);
    if (fresh == invalidAddr)
        return false;

    // Relocate existing slots compactly into the new sub-page.
    for (unsigned slot = 0; slot < pe.used; ++slot) {
        LineData tmp;
        pool.readLine(pe.subPage + static_cast<Addr>(slot) * lineBytes,
                      tmp);
        pool.writeLine(fresh + static_cast<Addr>(slot) * lineBytes, tmp);
    }
    ins.grownTo = fresh;
    ins.relocated = pe.used;
    // Slots keep their numbers, so their seqnos copy index for index.
    auto seqs = std::make_unique<SeqNo[]>(new_cap);
    std::copy_n(pe.slotSeq.get(), pe.used, seqs.get());
    pe.slotSeq = std::move(seqs);

    PagePool::SubPageHeader hdr;
    if (pe.subPage != invalidAddr) {
        hdr = *pool.header(pe.header);
        pool.dropHeader(pe.header);
        pool.freeLines(pe.subPage, pe.capacity, asid);
    }
    hdr.srcPage = pe.pageAddr;
    hdr.epoch = epoch_;
    hdr.capacityLines = static_cast<std::uint8_t>(new_cap);
    hdr.usedLines = pe.used;
    pe.header = pool.setHeader(PagePool::noHeader, fresh, hdr);
    ins.metaBytes = 16;   // header create/update

    pe.subPage = fresh;
    pe.capacity = static_cast<std::uint8_t>(new_cap);
    return true;
}

EpochTable::Inserted
EpochTable::insert(Addr line_addr, SeqNo seq, const LineData &content)
{
    nvo_assert(lineAlign(line_addr) == line_addr);
    Addr page_addr = pageAlign(line_addr);
    unsigned li = lineInPage(line_addr);
    PageEntry *pe = findOrCreateEntry(page_addr);
    nvo_assert(!pe->reclaimed, "insert into a reclaimed overlay page");

    Inserted ins;
    ins.page = pe;
    unsigned slot;
    bool fresh_line = !((pe->bitmap >> li) & 1ull);
    if (fresh_line) {
        if (pe->used == pe->capacity && !grow(*pe, ins))
            return ins;
        slot = pe->used++;
        pe->bitmap |= 1ull << li;
        pe->lineSlot[li] = static_cast<std::uint8_t>(slot);
        ++versions;
        pool.fillSlot(pe->header, slot, li);
    } else {
        slot = pe->lineSlot[li];
    }
    ins.nvmAddr = pe->subPage + static_cast<Addr>(slot) * lineBytes;

    // Same-epoch overwrite: the newest store wins in place. A stale
    // write (e.g., a walker draining content captured before a
    // concurrent same-epoch store) still costs a device write but
    // must not clobber newer content.
    if (fresh_line || seq >= pe->slotSeq[slot]) {
        pe->slotSeq[slot] = seq;
        pool.writeLine(ins.nvmAddr, content);
    }
    return ins;
}

void
EpochTable::adoptSubPage(PagePool::HeaderId id, Addr sub_page,
                         const PagePool::SubPageHeader &header)
{
    nvo_assert(header.epoch == epoch_,
               "sub-page belongs to a different epoch");
    PageEntry *pe = findOrCreateEntry(header.srcPage);
    nvo_assert(pe->subPage == invalidAddr,
               "overlay page already populated");
    pe->subPage = sub_page;
    pe->header = id;
    pe->capacity = header.capacityLines;
    pe->used = header.usedLines;
    // Seqnos are not persistent: the rebuilt slots start at 0.
    pe->slotSeq = std::make_unique<SeqNo[]>(header.capacityLines);
    for (unsigned slot = 0; slot < header.usedLines; ++slot) {
        unsigned li = header.slotLine[slot];
        pe->bitmap |= 1ull << li;
        pe->lineSlot[li] = static_cast<std::uint8_t>(slot);
        ++versions;
    }
}

Addr
EpochTable::lookupNvm(Addr line_addr) const
{
    const PageEntry *pe = findEntry(pageAlign(line_addr));
    if (!pe || pe->reclaimed)
        return invalidAddr;
    unsigned li = lineInPage(line_addr);
    if (!((pe->bitmap >> li) & 1ull))
        return invalidAddr;
    return pe->subPage +
           static_cast<Addr>(pe->lineSlot[li]) * lineBytes;
}

bool
EpochTable::readVersion(Addr line_addr, LineData &out) const
{
    Addr nvm = lookupNvm(line_addr);
    if (nvm == invalidAddr)
        return false;
    pool.readLine(nvm, out);
    return true;
}

void
EpochTable::forEachPage(const std::function<void(PageEntry &)> &fn)
{
    for (auto &pe : entries)
        fn(*pe);
}

EpochTable::PageEntry *
EpochTable::pageEntry(Addr page_addr)
{
    return findEntry(page_addr);
}

const EpochTable::PageEntry *
EpochTable::pageEntry(Addr page_addr) const
{
    return findEntry(page_addr);
}

void
EpochTable::audit() const
{
    if (!audit::enabled)
        return;
    index.audit();
    NVO_AUDIT(index.size() == entries.size(),
              "page index size diverged from the table's pages");
    for (const auto &pe : entries) {
        NVO_AUDIT(pageAlign(pe->pageAddr) == pe->pageAddr,
                  "overlay page entry for an unaligned page");
        NVO_AUDIT(findEntry(pe->pageAddr) == pe.get(),
                  "page index does not find an overlay page");
        if (pe->reclaimed)
            continue;
        NVO_AUDIT(popcount64(pe->bitmap) == pe->used,
                  "line bitmap population diverged from slot count");
        NVO_AUDIT(pe->used <= pe->capacity,
                  "overlay page uses more slots than its capacity");
        NVO_AUDIT(pe->capacity == 0 || pe->slotSeq,
                  "overlay sub-page without slot seqnos");
        NVO_AUDIT(pe->liveMaster <= pe->used,
                  "GC refcount exceeds stored versions");
        if (pe->used == 0)
            continue;
        NVO_AUDIT(pe->subPage != invalidAddr,
                  "versioned overlay page without NVM storage");
        NVO_AUDIT(pool.pageAllocated(pe->subPage),
                  "overlay page maps into an unallocated pool page");

        // line -> slot must be injective within capacity, and the
        // persistent header must tell the same story (it is what
        // recovery rebuilds the table from, Sec. V-E).
        std::uint64_t slots_taken = 0;
        for (unsigned li = 0; li < linesPerPage; ++li) {
            if (!((pe->bitmap >> li) & 1ull))
                continue;
            unsigned slot = pe->lineSlot[li];
            NVO_AUDIT(slot < pe->capacity,
                      "line slot outside the sub-page capacity");
            NVO_AUDIT(!((slots_taken >> slot) & 1ull),
                      "two lines share one sub-page slot");
            slots_taken |= 1ull << slot;
        }

        const PagePool::SubPageHeader *hdr = pool.header(pe->header);
        NVO_AUDIT(hdr != nullptr,
                  "live overlay page without a persistent header");
        if (!hdr)
            continue;
        NVO_AUDIT(pool.headerSubPage(pe->header) == pe->subPage,
                  "header slot describes another sub-page");
        NVO_AUDIT(hdr->srcPage == pe->pageAddr,
                  "header source page diverged from the entry");
        NVO_AUDIT(hdr->epoch == epoch_,
                  "header epoch diverged from the table epoch");
        NVO_AUDIT(hdr->capacityLines == pe->capacity,
                  "header capacity diverged from the entry");
        NVO_AUDIT(hdr->usedLines == pe->used,
                  "header fill diverged from the entry");
        for (unsigned slot = 0; slot < pe->used; ++slot) {
            unsigned li = hdr->slotLine[slot];
            NVO_AUDIT(li < linesPerPage &&
                          ((pe->bitmap >> li) & 1ull) &&
                          pe->lineSlot[li] == slot,
                      "header slot map diverged from the entry");
        }
    }
}

std::uint64_t
EpochTable::tableBytes() const
{
    // The root plus the inner nodes below it, and one leaf per page.
    return (1 + innerNodes.size()) * nodeBytes +
           entries.size() * leafBytes;
}

} // namespace nvo
