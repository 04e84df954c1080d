#include "mem/backing_store.hh"

#include "common/log.hh"

namespace nvo
{

std::uint64_t
LineData::digest() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (auto b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

BackingStore::Page *
BackingStore::findPage(Addr page_addr) const
{
    auto it = pages.find(page_addr);
    return it == pages.end() ? nullptr : it->second.get();
}

BackingStore::Page &
BackingStore::getPage(Addr page_addr)
{
    auto &slot = pages[page_addr];
    if (!slot)
        slot = std::make_unique<Page>();
    return *slot;
}

void
BackingStore::readLine(Addr line_addr, LineData &out) const
{
    nvo_assert(lineAlign(line_addr) == line_addr);
    const Page *page = findPage(pageAlign(line_addr));
    if (!page) {
        out.bytes.fill(0);
        return;
    }
    unsigned off = static_cast<unsigned>(line_addr & (pageBytes - 1));
    std::memcpy(out.bytes.data(), page->bytes.data() + off, lineBytes);
}

void
BackingStore::writeLine(Addr line_addr, const LineData &in)
{
    nvo_assert(lineAlign(line_addr) == line_addr);
    Page &page = getPage(pageAlign(line_addr));
    unsigned off = static_cast<unsigned>(line_addr & (pageBytes - 1));
    std::memcpy(page.bytes.data() + off, in.bytes.data(), lineBytes);
}

void
BackingStore::setOidGranularity(unsigned lines_per_tag)
{
    nvo_assert(isPow2(lines_per_tag) &&
               lines_per_tag <= linesPerPage);
    nvo_assert(pages.empty(),
               "set the OID granularity before any writes");
    oidGran = lines_per_tag;
}

EpochWide
BackingStore::lineOid(Addr line_addr) const
{
    const Page *page = findPage(pageAlign(line_addr));
    if (!page)
        return 0;
    // The tag lives in the super block's first line slot.
    unsigned li = lineInPage(line_addr) & ~(oidGran - 1);
    return page->meta[li].oid;
}

SeqNo
BackingStore::lineSeq(Addr line_addr) const
{
    const Page *page = findPage(pageAlign(line_addr));
    return page ? page->meta[lineInPage(line_addr)].seq : 0;
}

void
BackingStore::setLineMeta(Addr line_addr, EpochWide oid, SeqNo seq)
{
    setMeta(getPage(pageAlign(line_addr)), line_addr, oid, seq);
}

void
BackingStore::commitStore(Addr addr, const void *data, unsigned size,
                          EpochWide oid, SeqNo seq)
{
    nvo_assert(size > 0 && size <= lineBytes);
    nvo_assert(lineAlign(addr) == lineAlign(addr + size - 1),
               "store crosses a line boundary");
    Page &page = getPage(pageAlign(addr));
    unsigned off = static_cast<unsigned>(addr & (pageBytes - 1));
    std::memcpy(page.bytes.data() + off, data, size);
    setMeta(page, lineAlign(addr), oid, seq);
}

void
BackingStore::setMeta(Page &page, Addr line_addr, EpochWide oid,
                      SeqNo seq)
{
    unsigned li = lineInPage(line_addr);
    page.meta[li].seq = seq;
    // Shared super-block tag: only moved forward (Sec. V-F).
    unsigned tag = li & ~(oidGran - 1);
    if (oid > page.meta[tag].oid || oidGran == 1)
        page.meta[tag].oid = oid;
}

std::vector<Addr>
BackingStore::pageAddrs() const
{
    std::vector<Addr> out;
    out.reserve(pages.size());
    for (const auto &kv : pages)
        out.push_back(kv.first);
    return out;
}

void
BackingStore::clear()
{
    pages.clear();
}

} // namespace nvo
