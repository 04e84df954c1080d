#include "baselines/sw_shadow.hh"

namespace nvo
{

namespace
{
constexpr Addr shadowBaseA = 1ull << 43;
constexpr Addr shadowBaseB = 1ull << 44;
constexpr Addr mapBase = 1ull << 45;
} // namespace

SwShadowScheme::SwShadowScheme(const Config &cfg, NvmModel &nvm_model,
                               RunStats &run_stats)
    : nvm(nvm_model), stats(run_stats)
{
    startEpochClock(cfg);
    txnStores = cfg.getU64("sw.txn_stores", 16);
}

Cycle
SwShadowScheme::onStore(unsigned core, unsigned vd, Addr line_addr,
                        Cycle now)
{
    (void)core;
    (void)vd;
    Cycle stall = 0;
    txnDirty.insert(line_addr);

    // Romulus-style shadowing: the next transaction starts only after
    // the working set of the previous one is persistent, so every
    // txnStores stores the thread flushes its transaction write set
    // and the mapping update behind a barrier.
    if (++storesThisTxn >= txnStores) {
        storesThisTxn = 0;
        stall += flushTxn(now);
    }

    if (storeClosesEpoch()) {
        shadowSide = !shadowSide;
        ++stats.epochAdvances;
    }
    return stall;
}

Cycle
SwShadowScheme::flushTxn(Cycle now)
{
    Addr base = shadowSide ? shadowBaseB : shadowBaseA;
    Cycle done = now;
    for (Addr line : txnDirty) {
        auto issue = nvm.write(base + line, lineBytes, now,
                               NvmWriteKind::Data);
        done = std::max(done, issue.completion);
        ++stats.evictReason[static_cast<std::size_t>(
            EvictReason::EpochFlush)];
    }
    // Persistent mapping-table update ordered after the data flush.
    std::uint64_t map_bytes = 8 * txnDirty.size();
    auto issue = nvm.write(mapBase + (mapCursor % (1ull << 26)),
                           static_cast<std::uint32_t>(
                               std::max<std::uint64_t>(map_bytes, 8)),
                           done, NvmWriteKind::Mapping);
    mapCursor += map_bytes;
    done = issue.completion;
    txnDirty.clear();
    return done - now;
}

Cycle
SwShadowScheme::finalize(Cycle now)
{
    Cycle stall = flushTxn(now);
    advanceEpoch();
    return now + stall;
}

} // namespace nvo
