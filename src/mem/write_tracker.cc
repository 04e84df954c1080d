#include "mem/write_tracker.hh"

namespace nvo
{

void
WriteTracker::record(Addr line_addr, SeqNo seq, EpochWide epoch,
                     std::uint64_t digest)
{
    history[line_addr].push_back(Entry{seq, epoch, digest});
}

std::optional<std::uint64_t>
WriteTracker::expectedDigest(Addr line_addr, EpochWide er) const
{
    auto entry = expectedEntry(line_addr, er);
    if (!entry)
        return std::nullopt;
    return entry->digest;
}

std::optional<WriteTracker::Entry>
WriteTracker::expectedEntry(Addr line_addr, EpochWide er) const
{
    auto it = history.find(line_addr);
    if (it == history.end())
        return std::nullopt;
    // Entries are appended in per-line commit order; epochs are
    // non-decreasing, so the last entry with epoch <= er is the
    // expected recovered content.
    const auto &entries = it->second;
    for (auto rit = entries.rbegin(); rit != entries.rend(); ++rit) {
        if (rit->epoch <= er)
            return *rit;
    }
    return std::nullopt;
}

bool
WriteTracker::epochsMonotonic() const
{
    for (const auto &kv : history) {
        EpochWide prev = 0;
        for (const auto &entry : kv.second) {
            if (entry.epoch < prev)
                return false;
            prev = entry.epoch;
        }
    }
    return true;
}

std::vector<Addr>
WriteTracker::trackedLines() const
{
    std::vector<Addr> out;
    out.reserve(history.size());
    for (const auto &kv : history)
        out.push_back(kv.first);
    return out;
}

} // namespace nvo
