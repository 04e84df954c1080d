#include "baselines/hw_shadow.hh"

namespace nvo
{

namespace
{
constexpr Addr shadowBase = 1ull << 43;
constexpr Addr shadowStride = 1ull << 40;   // three version regions
constexpr Addr mapBase = 1ull << 45;
} // namespace

HwShadowScheme::HwShadowScheme(const Config &cfg, NvmModel &nvm_model,
                               RunStats &run_stats)
    : nvm(nvm_model), stats(run_stats)
{
    startEpochClock(cfg);
}

Cycle
HwShadowScheme::onStore(unsigned core, unsigned vd, Addr line_addr,
                        Cycle now)
{
    (void)core;
    (void)vd;
    dirtyLines.insert(line_addr);
    if (storeClosesEpoch()) {
        addGlobalStall(epochBoundary(now));
        ++stats.epochAdvances;
    }
    return 0;
}

Cycle
HwShadowScheme::epochBoundary(Cycle now)
{
    Cycle stall = 0;

    // Rule 1: the previous epoch's background persist must have
    // finished before this boundary can proceed.
    if (prevPersistDone > now) {
        stall += prevPersistDone - now;
        now = prevPersistDone;
    }

    // Background data persist of this epoch's write set (overlapped
    // with the next epoch's execution).
    Addr base = shadowBase + static_cast<Addr>(shadowSlot) *
                                 shadowStride;
    shadowSlot = (shadowSlot + 1) % 3;
    Cycle persist_done = now;
    for (Addr line : dirtyLines) {
        auto issue = nvm.write(base + line, lineBytes, now,
                               NvmWriteKind::Data);
        persist_done = std::max(persist_done, issue.completion);
        ++stats.evictReason[static_cast<std::size_t>(
            EvictReason::EpochFlush)];
    }
    prevPersistDone = persist_done;

    // Rule 2: the centralized mapping-table update is synchronous
    // (non-overlappable, Sec. II-C): 8 B per dirty line, written as
    // a serialized stream of 64 B chunks.
    std::uint64_t map_bytes = 8 * dirtyLines.size();
    Cycle done = now;
    while (map_bytes > 0) {
        std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(map_bytes, lineBytes));
        auto issue = nvm.write(mapBase + (mapCursor % (1ull << 26)),
                               chunk, done, NvmWriteKind::Mapping);
        done = issue.completion;
        mapCursor += chunk;
        map_bytes -= chunk;
    }
    stall += done - now;

    dirtyLines.clear();
    return stall;
}

Cycle
HwShadowScheme::finalize(Cycle now)
{
    Cycle stall = epochBoundary(now);
    advanceEpoch();
    Cycle done = std::max(now + stall, prevPersistDone);
    return done;
}

} // namespace nvo
