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
    Page *const *page = index.probe(page_addr);
    return page ? *page : nullptr;
}

BackingStore::Page &
BackingStore::getPage(Addr page_addr)
{
    Page *&page = index[page_addr];
    if (!page) {
        pages.push_back(std::make_unique<Page>());
        page = pages.back().get();
    }
    return *page;
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
BackingStore::exchangeLine(Addr line_addr, const LineData &in,
                           LineData &old)
{
    nvo_assert(lineAlign(line_addr) == line_addr);
    Page &page = getPage(pageAlign(line_addr));
    std::uint8_t *bytes =
        page.bytes.data() + (line_addr & (pageBytes - 1));
    std::memcpy(old.bytes.data(), bytes, lineBytes);
    std::memcpy(bytes, in.bytes.data(), lineBytes);
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
    if (!page || !page->meta)
        return 0;
    // The tag lives in the super block's first line slot.
    unsigned li = lineInPage(line_addr) & ~(oidGran - 1);
    return (*page->meta)[li].oid;
}

SeqNo
BackingStore::lineSeq(Addr line_addr) const
{
    const Page *page = findPage(pageAlign(line_addr));
    return page && page->meta ? (*page->meta)[lineInPage(line_addr)].seq
                              : 0;
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
    if (!page.meta)
        page.meta = std::make_unique<std::array<LineMeta, linesPerPage>>();
    auto &meta = *page.meta;
    unsigned li = lineInPage(line_addr);
    meta[li].seq = seq;
    // Shared super-block tag: only moved forward (Sec. V-F).
    unsigned tag = li & ~(oidGran - 1);
    if (oid > meta[tag].oid || oidGran == 1)
        meta[tag].oid = oid;
}

void
BackingStore::clear()
{
    index = {};
    pages.clear();
}

} // namespace nvo
