#include "cache/llc.hh"

#include <utility>

#include "common/audit.hh"
#include "common/bitutil.hh"
#include "common/log.hh"

namespace nvo
{

namespace
{
/** Initial directory slots per slice; doubled at load 1/2. */
constexpr unsigned initialSlotsLog2 = 6;
} // namespace

LlcSlice::LlcSlice(const Params &params)
    : arr(params.sliceBytes, params.ways), lat(params.latency),
      table(std::size_t(1) << initialSlotsLog2),
      shift(64 - initialSlotsLog2)
{
}

std::size_t
LlcSlice::home(Addr line_addr) const
{
    // Fibonacci hashing: the multiply scrambles runs of consecutive
    // lines across the table, so they do not form probe clusters.
    return static_cast<std::size_t>(
        ((line_addr >> lineBytesLog2) * 0x9e3779b97f4a7c15ull) >> shift);
}

std::size_t
LlcSlice::find(Addr line_addr) const
{
    const std::size_t mask = table.size() - 1;
    std::size_t i = home(line_addr);
    // Load stays at most 1/2, so every probe run ends in an empty slot.
    while (table[i].addr != line_addr && table[i].addr != invalidAddr)
        i = (i + 1) & mask;
    return i;
}

void
LlcSlice::grow()
{
    std::vector<Slot> old = std::exchange(table, {});
    table.resize(old.size() * 2);
    --shift;
    for (const Slot &s : old)
        if (s.addr != invalidAddr)
            table[find(s.addr)] = s;
}

DirEntry &
LlcSlice::dir(Addr line_addr)
{
    std::size_t i = find(line_addr);
    if (table[i].addr == line_addr)
        return table[i].entry;
    if (2 * (count + 1) > table.size()) {
        grow();
        i = find(line_addr);
    }
    table[i].addr = line_addr;
    table[i].entry = DirEntry{};
    ++count;
    return table[i].entry;
}

DirEntry *
LlcSlice::dirProbe(Addr line_addr)
{
    Slot &s = table[find(line_addr)];
    return s.addr == line_addr ? &s.entry : nullptr;
}

const DirEntry *
LlcSlice::dirProbe(Addr line_addr) const
{
    const Slot &s = table[find(line_addr)];
    return s.addr == line_addr ? &s.entry : nullptr;
}

void
LlcSlice::dirErase(Addr line_addr)
{
    const std::size_t mask = table.size() - 1;
    std::size_t hole = find(line_addr);
    nvo_assert(table[hole].addr == line_addr,
               "erasing an absent directory entry");
    // Backward shift: walk the rest of the probe run and move back
    // every entry whose home does not lie cyclically in (hole, j],
    // so no lookup ever has to step over a tombstone.
    for (std::size_t j = (hole + 1) & mask; table[j].addr != invalidAddr;
         j = (j + 1) & mask) {
        const std::size_t h = home(table[j].addr);
        if (((j - h) & mask) >= ((j - hole) & mask)) {
            table[hole] = table[j];
            hole = j;
        }
    }
    table[hole] = Slot{};
    --count;
}

void
LlcSlice::audit() const
{
    if (!audit::enabled)
        return;
    arr.audit();
    arr.forEachValid([](const CacheLine &line) {
        NVO_AUDIT(line.sharers == 0,
                  "L2-private sharer bits on an LLC line");
        NVO_AUDIT(!line.sealed(), "sealed payload in the LLC");
    });
    std::size_t entries = 0;
    for (std::size_t i = 0; i < table.size(); ++i) {
        const Addr addr = table[i].addr;
        if (addr == invalidAddr)
            continue;
        ++entries;
        NVO_AUDIT(lineAlign(addr) == addr,
                  "directory keyed by an unaligned address");
        NVO_AUDIT(find(addr) == i,
                  "directory entry off its probe run");
        const DirEntry &e = table[i].entry;
        NVO_AUDIT(e.sharerVds != 0, "directory entry without a sharer");
        NVO_AUDIT(e.ownerVd < 0 ||
                      e.isSharer(static_cast<unsigned>(e.ownerVd)),
                  "directory owner VD is not a sharer");
    }
    NVO_AUDIT(entries == count,
              "running directory count disagrees with the table");
}

} // namespace nvo
