/**
 * @file
 * Byte-accurate sparse main-memory image.
 *
 * Holds the *working copy* of every simulated physical page, plus the
 * per-line metadata the paper keeps alongside DRAM data (Sec. IV-A4):
 * the 16-bit OID of the epoch that last wrote the line (stored in ECC
 * bits on real hardware) and, as a simulation aid, a monotonic store
 * sequence number used by verification.
 */

#ifndef NVO_MEM_BACKING_STORE_HH
#define NVO_MEM_BACKING_STORE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/bitutil.hh"
#include "common/types.hh"

namespace nvo
{

/** Content of one cache line. */
struct LineData
{
    std::array<std::uint8_t, lineBytes> bytes{};

    bool operator==(const LineData &other) const
    {
        return bytes == other.bytes;
    }

    /** FNV-1a digest of the content, used by verification. */
    std::uint64_t digest() const;
};

class BackingStore
{
  public:
    BackingStore() = default;

    /**
     * OID tracking granularity in lines (power of two, default 1).
     * With n > 1, one OID tag covers a super block of n lines and is
     * only moved forward (paper Sec. V-F: lowers the DRAM tagging
     * overhead from 3.2% to <0.8% at n=4 at the cost of conservative
     * — and therefore still correct — epoch observations).
     */
    void setOidGranularity(unsigned lines_per_tag);

    /** Read one line; untouched lines read as zero. */
    void readLine(Addr line_addr, LineData &out) const;

    /** Overwrite one full line. */
    void writeLine(Addr line_addr, const LineData &in);

    /** Overwrite one full line and return its previous content
     *  through @p old: one page lookup for both. */
    void exchangeLine(Addr line_addr, const LineData &in, LineData &old);

    /** Per-line OID tag (epoch of last write), as kept in DRAM ECC. */
    EpochWide lineOid(Addr line_addr) const;
    /** Seqno of the last committed store to the line (verification). */
    SeqNo lineSeq(Addr line_addr) const;
    void setLineMeta(Addr line_addr, EpochWide oid, SeqNo seq);

    /**
     * Commit a store of @p size bytes at byte address @p addr, which
     * must not cross a line boundary, and set its line's metadata as
     * setLineMeta does: one page lookup for both.
     */
    void commitStore(Addr addr, const void *data, unsigned size,
                     EpochWide oid, SeqNo seq);

    /** Number of materialized pages (footprint check). */
    std::size_t numPages() const { return pages.size(); }

    /** Drop all content (simulated power loss of DRAM). */
    void clear();

  private:
    struct LineMeta
    {
        EpochWide oid = 0;
        SeqNo seq = 0;
    };

    struct Page
    {
        std::array<std::uint8_t, pageBytes> bytes{};
        std::array<LineMeta, linesPerPage> meta{};
    };

    Page *findPage(Addr page_addr) const;
    Page &getPage(Addr page_addr);
    void setMeta(Page &page, Addr line_addr, EpochWide oid, SeqNo seq);

    unsigned oidGran = 1;
    std::unordered_map<Addr, std::unique_ptr<Page>> pages;
};

} // namespace nvo

#endif // NVO_MEM_BACKING_STORE_HH
