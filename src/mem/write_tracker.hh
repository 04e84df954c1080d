/**
 * @file
 * Verification-only record of every committed store.
 *
 * The correctness theorem (DESIGN.md Sec. 2): per-line version epochs
 * are non-decreasing, so the recovered content of a line at
 * recoverable epoch Er must equal the content after the *last* store
 * to it with epoch <= Er. The tracker records, per line, the sequence
 * of (seq, wide epoch, content digest) triples so tests can compute
 * the expected image for any Er and compare digests.
 */

#ifndef NVO_MEM_WRITE_TRACKER_HH
#define NVO_MEM_WRITE_TRACKER_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace nvo
{

class WriteTracker
{
  public:
    struct Entry
    {
        SeqNo seq;
        EpochWide epoch;
        std::uint64_t digest;   ///< content digest after the store
    };

    /** Record a committed store to @p line_addr. */
    void record(Addr line_addr, SeqNo seq, EpochWide epoch,
                std::uint64_t digest);

    /**
     * Expected digest of @p line_addr when recovering at epoch
     * @p er (inclusive); nullopt when the line has no store with
     * epoch <= er (its recovered content is unconstrained / absent).
     */
    std::optional<std::uint64_t> expectedDigest(Addr line_addr,
                                                EpochWide er) const;

    /**
     * Like expectedDigest, but returns the whole defining entry —
     * crash campaigns need the defining store's epoch to decide
     * whether a mismatch is a durability bug or a version the backend
     * never received.
     */
    std::optional<Entry> expectedEntry(Addr line_addr,
                                       EpochWide er) const;

    /** Check that per-line epochs never decrease (theorem premise). */
    bool epochsMonotonic() const;

    /** All tracked line addresses. */
    std::vector<Addr> trackedLines() const;

  private:
    std::unordered_map<Addr, std::vector<Entry>> history;
};

} // namespace nvo

#endif // NVO_MEM_WRITE_TRACKER_HH
