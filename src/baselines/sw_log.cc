#include "baselines/sw_log.hh"

namespace nvo
{

namespace
{
constexpr std::uint32_t logEntryBytes = 72;   // 64 B data + 8 B tag
constexpr Addr logRegionBase = 1ull << 42;
constexpr Addr dataRegionBase = 1ull << 43;
} // namespace

SwLogScheme::SwLogScheme(const Config &cfg, NvmModel &nvm_model,
                         RunStats &run_stats)
    : nvm(nvm_model), stats(run_stats), logCursor(logRegionBase)
{
    startEpochClock(cfg);
}

Cycle
SwLogScheme::onStore(unsigned core, unsigned vd, Addr line_addr,
                     Cycle now)
{
    (void)core;
    (void)vd;
    Cycle stall = 0;

    // Undo logging persists the old value behind a barrier before
    // every write (Table I: per-write persistence barrier): the
    // pipeline stalls until the log entry is durable.
    auto issue = nvm.write(logCursor, logEntryBytes, now,
                           NvmWriteKind::Log);
    logCursor += logEntryBytes;
    if (logCursor >= dataRegionBase)
        logCursor = logRegionBase;   // circular log region
    stall += (issue.completion - now) + issue.stall;
    ++stats.evictReason[static_cast<std::size_t>(
        EvictReason::Coherence)];
    loggedLines.insert(line_addr);

    if (storeClosesEpoch()) {
        addGlobalStall(flushEpoch(now + stall));
        ++stats.epochAdvances;
    }
    return stall;
}

Cycle
SwLogScheme::flushEpoch(Cycle now)
{
    // clwb each dirty line, then sfence: the thread waits for all of
    // them to complete before the next epoch starts.
    Cycle done = now;
    for (Addr line : loggedLines) {
        auto issue = nvm.write(dataRegionBase + line, lineBytes, now,
                               NvmWriteKind::Data);
        done = std::max(done, issue.completion);
        ++stats.evictReason[static_cast<std::size_t>(
            EvictReason::EpochFlush)];
    }
    loggedLines.clear();
    return done - now;
}

Cycle
SwLogScheme::finalize(Cycle now)
{
    Cycle stall = flushEpoch(now);
    advanceEpoch();
    return now + stall;
}

} // namespace nvo
