#include "nvoverlay/master_table.hh"

#include "common/audit.hh"
#include "common/bitutil.hh"
#include "common/log.hh"
#include "obs/registry.hh"

namespace nvo
{

namespace
{
constexpr std::uint64_t innerNodeBytes = 512 * 8;
constexpr std::uint64_t leafNodeBytes = 64 * 8;
} // namespace

MasterTable::MasterTable(MetaWriteFn meta_write)
    : metaWrite(std::move(meta_write)),
      hWalk_(obs::metricRegistry().addHist("mnm.master_walk_depth")),
      root(new InnerNode), nodeBytes_(innerNodeBytes)
{
}

MasterTable::~MasterTable()
{
    destroy(root, 0);
}

void
MasterTable::destroy(InnerNode *node, unsigned level)
{
    for (void *c : node->child) {
        if (!c)
            continue;
        if (level < 3)
            destroy(static_cast<InnerNode *>(c), level + 1);
        else
            delete static_cast<LeafNode *>(c);
    }
    delete node;
}

unsigned
MasterTable::idxAt(Addr line_addr, unsigned level)
{
    // Levels 0..3: bits 47..39, 38..30, 29..21, 20..12 (9 bits each);
    // level 4: bits 11..6 (line within page).
    if (level < 4) {
        unsigned shift = 39 - level * 9;
        return static_cast<unsigned>((line_addr >> shift) & 0x1ff);
    }
    return lineInPage(line_addr);
}

void
MasterTable::emitMeta(std::uint32_t bytes)
{
    if (metaWrite)
        metaWrite(bytes);
}

std::optional<MasterTable::Entry>
MasterTable::insert(tenant::Key key, Addr nvm_addr, EpochWide e)
{
    const Addr line_addr = key.addr;
    nvo_assert(lineAlign(line_addr) == line_addr);
    InnerNode *node = root;
    unsigned allocated = 0;
    for (unsigned level = 0; level < 3; ++level) {
        void *&c = node->child[idxAt(line_addr, level)];
        if (!c) {
            c = new InnerNode;
            nodeBytes_ += innerNodeBytes;
            emitMeta(8);   // parent pointer persist
            ++allocated;
        }
        node = static_cast<InnerNode *>(c);
    }
    void *&lc = node->child[idxAt(line_addr, 3)];
    if (!lc) {
        lc = new LeafNode;
        nodeBytes_ += leafNodeBytes;
        emitMeta(8);
        ++allocated;
    }
    auto *leaf = static_cast<LeafNode *>(lc);
    unsigned li = idxAt(line_addr, 4);

    std::optional<Entry> replaced;
    if ((leaf->bitmap >> li) & 1ull)
        replaced = leaf->entry[li];
    else
        ++mapped;
    if (journaling()) {
        undoLog.push_back({line_addr, replaced.value_or(Entry{})});
        staged(PersistDomain::Kind::Master);
    }
    leaf->bitmap |= 1ull << li;
    leaf->entry[li] = Entry{nvm_addr, e};
    emitMeta(8);   // entry persist (48-bit addr + 16-bit epoch)
    // Fixed-depth radix: 4 nodes visited, plus one "cost" unit per
    // node allocated on the way down.
    NVO_METRIC(record(hWalk_, 4 + allocated));
    return replaced;
}

void
MasterTable::unwind()
{
    // Newest first: each before-image lands on the entry exactly as
    // its insert left it. The inserts built every node on the way.
    for (; !undoLog.empty(); undoLog.pop_back()) {
        const Undo &rec = undoLog.back();
        if (rec.old.nvmAddr == invalidAddr) {
            erase(tenant::Key{rec.key});
            continue;
        }
        LeafNode *leaf = leafOf(rec.key);
        const unsigned li = idxAt(rec.key, 4);
        nvo_assert(leaf && ((leaf->bitmap >> li) & 1ull),
                   "master undo over an unmapped line");
        leaf->entry[li] = rec.old;
    }
}

MasterTable::LeafNode *
MasterTable::leafOf(Addr line_addr) const
{
    const InnerNode *node = root;
    for (unsigned level = 0; level < 3; ++level) {
        const void *c = node->child[idxAt(line_addr, level)];
        if (!c)
            return nullptr;
        node = static_cast<const InnerNode *>(c);
    }
    return static_cast<LeafNode *>(node->child[idxAt(line_addr, 3)]);
}

void
MasterTable::erase(tenant::Key key)
{
    LeafNode *leaf = leafOf(key.addr);
    const unsigned li = idxAt(key.addr, 4);
    if (!leaf || !((leaf->bitmap >> li) & 1ull))
        return;
    leaf->bitmap &= ~(1ull << li);
    leaf->entry[li] = Entry{};
    --mapped;
}

const MasterTable::Entry *
MasterTable::lookup(Addr line_addr) const
{
    const LeafNode *leaf = leafOf(line_addr);
    const unsigned li = idxAt(line_addr, 4);
    if (!leaf || !((leaf->bitmap >> li) & 1ull))
        return nullptr;
    return &leaf->entry[li];
}

void
MasterTable::forEachRec(
    const InnerNode *node, unsigned level, Addr prefix,
    const std::function<void(Addr, const Entry &)> &fn) const
{
    unsigned shift = 39 - level * 9;
    for (unsigned i = 0; i < 512; ++i) {
        const void *c = node->child[i];
        if (!c)
            continue;
        Addr next = prefix | (static_cast<Addr>(i) << shift);
        if (level < 3) {
            forEachRec(static_cast<const InnerNode *>(c), level + 1,
                       next, fn);
        } else {
            const auto *leaf = static_cast<const LeafNode *>(c);
            for (unsigned li = 0; li < 64; ++li) {
                if (!((leaf->bitmap >> li) & 1ull))
                    continue;
                fn(next | (static_cast<Addr>(li) << lineBytesLog2),
                   leaf->entry[li]);
            }
        }
    }
}

void
MasterTable::forEach(
    const std::function<void(Addr, const Entry &)> &fn) const
{
    forEachRec(root, 0, 0, fn);
}

void
MasterTable::audit() const
{
    if (!audit::enabled)
        return;
    std::uint64_t walked = 0;
    forEach([&walked](Addr line_addr, const Entry &entry) {
        ++walked;
        NVO_AUDIT(lineAlign(line_addr) == line_addr,
                  "master table maps an unaligned address");
        NVO_AUDIT(entry.nvmAddr != invalidAddr,
                  "master entry without NVM storage");
    });
    NVO_AUDIT(walked == mapped,
              "mapped-line counter diverged from the tree");
}

} // namespace nvo
