/**
 * @file
 * Coherence protocol types shared by all cache levels.
 *
 * The protocol is directory-based MESI (paper Sec. IV baseline).
 * NVOverlay does not add states or transitions; it only adds OID tag
 * checks and extra evictions around existing actions, which is exactly
 * how the hierarchy here is structured.
 */

#ifndef NVO_CACHE_COHERENCE_HH
#define NVO_CACHE_COHERENCE_HH

#include <cstdint>
#include <memory>

#include "common/types.hh"
#include "mem/backing_store.hh"

namespace nvo
{

enum class CohState : std::uint8_t
{
    I = 0,  ///< invalid
    S,      ///< shared, clean
    E,      ///< exclusive, clean
    M       ///< modified (dirty version)
};

const char *toString(CohState s);

/** True for states that allow a store to complete locally. */
inline bool
writable(CohState s)
{
    return s == CohState::E || s == CohState::M;
}

/**
 * One cache line. Data payloads are attached only to *sealed*
 * versions: a dirty line whose content is no longer the architectural
 * current value because a newer version exists above it (created by
 * NVOverlay store-eviction). Live dirty lines read their content from
 * the backing store at write-back time.
 *
 * Fields are ordered by size, which packs a line into 48 B with no
 * interior padding: a 16-way LLC set spans twelve host cache lines,
 * and every set scan (CacheArray) reads all of them.
 */
struct CacheLine
{
    Addr addr = invalidAddr;      ///< line-aligned address; invalid slot
    EpochWide oid = 0;            ///< epoch of last write (version tag)
    SeqNo seq = 0;                ///< last store seqno (verification)
    std::uint64_t lru = 0;        ///< replacement stamp
    std::unique_ptr<LineData> sealedData;   ///< sealed version payload
    std::uint16_t sharers = 0;    ///< L2 only: bitmask of local L1s
    CohState state = CohState::I;
    bool dirty = false;

    bool valid() const { return addr != invalidAddr; }
    bool sealed() const { return sealedData != nullptr; }

    void
    reset()
    {
        addr = invalidAddr;
        state = CohState::I;
        dirty = false;
        oid = 0;
        seq = 0;
        sharers = 0;
        sealedData.reset();
    }
};

static_assert(sizeof(CacheLine) == 48, "CacheLine packs into 48 B");

} // namespace nvo

#endif // NVO_CACHE_COHERENCE_HH
