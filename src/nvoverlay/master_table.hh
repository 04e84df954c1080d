/**
 * @file
 * Persistent Master Mapping Table, Mmaster (paper Sec. V-C, Fig. 10).
 *
 * A five-level radix tree: the first four levels are identical to the
 * per-epoch tables (9 bits each, address bits 47..12); the fifth
 * level is indexed by bits 11..6 for cache-line-granularity mapping.
 * Every node is persisted on NVM; each entry update is one 8-byte
 * persistent write, reported through the metadata sink so the
 * experiments can account mapping-table write traffic (Fig. 12) and
 * table storage (Fig. 13).
 */

#ifndef NVO_NVOVERLAY_MASTER_TABLE_HH
#define NVO_NVOVERLAY_MASTER_TABLE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "common/types.hh"
#include "tenant/asid.hh"

namespace nvo
{

namespace obs
{
struct HistMetric;
} // namespace obs

class MasterTable
{
  public:
    struct Entry
    {
        Addr nvmAddr = invalidAddr;
        EpochWide epoch = 0;
    };

    /** Sink for persistent metadata writes (bytes). */
    using MetaWriteFn = std::function<void(std::uint32_t)>;

    explicit MasterTable(MetaWriteFn meta_write = {});
    ~MasterTable();

    MasterTable(const MasterTable &) = delete;
    MasterTable &operator=(const MasterTable &) = delete;

    /**
     * Map @p key (an ASID-tagged line address) to @p nvm_addr
     * (version of epoch @p e). The tenant's subtree is selected by
     * the tag bits inside the key's address — see tenant/asid.hh.
     * Returns the replaced entry if one existed (its version becomes
     * stale and must be unreferenced for GC).
     */
    std::optional<Entry> insert(tenant::Key key, Addr nvm_addr,
                                EpochWide e);

    /**
     * Unmap @p key (crash-unwind helper for the persist domain).
     * Radix nodes stay allocated and no metadata write is emitted:
     * the undo restores modelled state, it is not protocol traffic.
     * No-op when the line is not mapped.
     */
    void erase(tenant::Key key);

    const Entry *lookup(Addr line_addr) const;

    /** Visit every mapped line: fn(line_addr, entry). */
    void forEach(
        const std::function<void(Addr, const Entry &)> &fn) const;

    /** Total persistent node storage (Fig. 13 numerator). */
    std::uint64_t nodeBytes() const { return nodeBytes_; }

    std::uint64_t mappedLines() const { return mapped; }

    /**
     * Invariant sweep (NVO_AUDIT): the mapped-line counter matches
     * the tree's population and every mapped entry points at real
     * NVM storage (Fig. 10: entries are never left dangling).
     */
    void audit() const;

  private:
    struct InnerNode
    {
        std::array<void *, 512> child{};
    };

    struct LeafNode
    {
        std::uint64_t bitmap = 0;
        std::array<Entry, 64> entry{};
    };

    static unsigned idxAt(Addr line_addr, unsigned level);

    void emitMeta(std::uint32_t bytes);
    void destroy(InnerNode *node, unsigned level);
    void forEachRec(const InnerNode *node, unsigned level, Addr prefix,
                    const std::function<void(Addr, const Entry &)> &fn)
        const;

    MetaWriteFn metaWrite;
    /** Walk-depth histogram (nodes visited + nodes allocated per
     *  insert): a p99 above the 5-level floor means inserts are
     *  still growing the tree rather than filling existing leaves. */
    obs::HistMetric *hWalk_ = nullptr;
    InnerNode *root;
    std::uint64_t nodeBytes_;
    std::uint64_t mapped = 0;
};

} // namespace nvo

#endif // NVO_NVOVERLAY_MASTER_TABLE_HH
