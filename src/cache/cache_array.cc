#include "cache/cache_array.hh"

#include "common/audit.hh"
#include "common/bitutil.hh"
#include "common/log.hh"

namespace nvo
{

const char *
toString(CohState s)
{
    switch (s) {
      case CohState::I: return "I";
      case CohState::S: return "S";
      case CohState::E: return "E";
      case CohState::M: return "M";
      default: return "?";
    }
}

CacheArray::CacheArray(std::uint64_t size_bytes, unsigned ways)
    : ways_(ways)
{
    nvo_assert(ways > 0);
    nvo_assert(size_bytes % (static_cast<std::uint64_t>(ways) *
                             lineBytes) == 0,
               "cache size must be a multiple of ways * line size");
    std::uint64_t num_sets = size_bytes / ways / lineBytes;
    nvo_assert(isPow2(num_sets), "number of sets must be a power of 2");
    sets = static_cast<unsigned>(num_sets);
    lines.resize(static_cast<std::size_t>(sets) * ways_);
    marks.resize((lines.size() + 63) / 64);
    markedWords.resize((marks.size() + 63) / 64);
}

unsigned
CacheArray::setOf(Addr line_addr) const
{
    return static_cast<unsigned>((line_addr >> lineBytesLog2) &
                                 (sets - 1));
}

CacheLine *
CacheArray::lookup(Addr line_addr)
{
    CacheLine *line = probe(line_addr);
    if (line)
        line->lru = ++lruClock;
    return line;
}

CacheLine *
CacheArray::probe(Addr line_addr)
{
    nvo_assert(lineAlign(line_addr) == line_addr);
    CacheLine *base = &lines[static_cast<std::size_t>(setOf(line_addr)) *
                             ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid() && base[w].addr == line_addr)
            return &base[w];
    }
    return nullptr;
}

const CacheLine *
CacheArray::probe(Addr line_addr) const
{
    return const_cast<CacheArray *>(this)->probe(line_addr);
}

CacheLine *
CacheArray::allocSlot(Addr line_addr)
{
    nvo_assert(lineAlign(line_addr) == line_addr);
    CacheLine *base = &lines[static_cast<std::size_t>(setOf(line_addr)) *
                             ways_];
    // One pass over the set: remember the first invalid way and the
    // first way with the smallest stamp, and check every valid way
    // for the address on the way.
    CacheLine *invalid = nullptr;
    CacheLine *victim = &base[0];
    for (unsigned w = 0; w < ways_; ++w) {
        if (!base[w].valid()) {
            if (!invalid)
                invalid = &base[w];
            continue;
        }
        nvo_assert(base[w].addr != line_addr,
                   "allocSlot on an already-present address");
        if (base[w].lru < victim->lru)
            victim = &base[w];
    }
    return invalid ? invalid : victim;
}

void
CacheArray::install(CacheLine *slot, Addr line_addr)
{
    nvo_assert(slot != nullptr);
    slot->reset();
    slot->addr = line_addr;
    slot->lru = ++lruClock;
}

void
CacheArray::invalidate(CacheLine *line)
{
    nvo_assert(line != nullptr);
    line->reset();
}

unsigned
CacheArray::numValid() const
{
    unsigned count = 0;
    for (const auto &line : lines)
        if (line.valid())
            ++count;
    return count;
}

CacheLine *
CacheArray::setBase(unsigned set_idx)
{
    nvo_assert(set_idx < sets);
    return &lines[static_cast<std::size_t>(set_idx) * ways_];
}

void
CacheArray::audit() const
{
    if (!audit::enabled)
        return;
    for (unsigned set = 0; set < sets; ++set) {
        const CacheLine *base =
            &lines[static_cast<std::size_t>(set) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            const CacheLine &line = base[w];
            if (!line.valid()) {
                NVO_AUDIT(line.state == CohState::I &&
                              !line.dirty && !line.sealed(),
                          "invalid slot carries residual state");
                continue;
            }
            NVO_AUDIT(lineAlign(line.addr) == line.addr,
                      "cached address not line-aligned");
            NVO_AUDIT(setOf(line.addr) == set,
                      "line stored in the wrong set");
            NVO_AUDIT(line.state != CohState::I,
                      "valid line in coherence state I");
            NVO_AUDIT(line.lru <= lruClock,
                      "replacement stamp ahead of the LRU clock");
            for (unsigned w2 = w + 1; w2 < ways_; ++w2)
                NVO_AUDIT(!base[w2].valid() ||
                              base[w2].addr != line.addr,
                          "address mapped by two ways of one set");
        }
    }
}

} // namespace nvo
