#include "baselines/picl.hh"

#include "common/audit.hh"

namespace nvo
{

namespace
{
constexpr std::uint32_t logEntryBytes = 72;
constexpr Addr logRegionBase = 1ull << 42;
constexpr Addr dataRegionBase = 1ull << 43;
} // namespace

PiclScheme::PiclScheme(const Config &cfg, NvmModel &nvm_model,
                       RunStats &run_stats, bool l2_level)
    : nvm(nvm_model), stats(run_stats), l2Level(l2_level),
      tags(l2_level
               ? cfg.getU64("picl.l2_tag_bytes", 8ull * 256 * 1024)
               : cfg.getU64("picl.tag_bytes", 32ull * 1024 * 1024),
           l2_level
               ? static_cast<unsigned>(cfg.getU64("picl.l2_ways", 8))
               : static_cast<unsigned>(cfg.getU64("picl.ways", 16)))
{
    startEpochClock(cfg);
    walkerEnabled = cfg.getBool("picl.walker_enabled", true);
    drainPerTick = static_cast<unsigned>(
        cfg.getU64("picl.drain_per_tick", 256));
}

Cycle
PiclScheme::writeLog(Cycle now)
{
    auto issue = nvm.write(logRegionBase + (logCursor % (1ull << 28)),
                           logEntryBytes, now, NvmWriteKind::Log);
    logCursor += logEntryBytes;
    ++stats.evictReason[static_cast<std::size_t>(
        EvictReason::Coherence)];
    return issue.stall;
}

Cycle
PiclScheme::writeData(Addr line_addr, Cycle now, EvictReason why)
{
    auto issue = nvm.write(dataRegionBase + line_addr, lineBytes, now,
                           NvmWriteKind::Data);
    ++stats.evictReason[static_cast<std::size_t>(why)];
    return issue.stall;
}

void
PiclScheme::scheduleWalk()
{
    if (!walkerEnabled)
        return;
    // ACS: collect dirty lines from completed epochs; drain them to
    // NVM over the following ticks (this is the epoch-boundary
    // bandwidth surge of Fig. 17). Only marked slots can hold a dirty
    // line, and they are visited in slot order, as a full scan would.
    const EpochWide epoch = globalEpoch();
    tags.forEachMarked([&](CacheLine &line) {
        if (!line.dirty)
            return;
        if (line.oid < epoch) {
            drainQueue.push_back(line.addr);
            line.dirty = false;
        } else {
            tags.mark(line);
        }
    });
}

Cycle
PiclScheme::onStore(unsigned core, unsigned vd, Addr line_addr,
                    Cycle now)
{
    (void)core;
    (void)vd;
    Cycle stall = 0;
    const EpochWide epoch = globalEpoch();

    CacheLine *line = tags.lookup(line_addr);
    if (line) {
        if (line->seq != epoch) {
            // First store to this line in the current epoch: emit an
            // undo log entry (background).
            stall += writeLog(now);
            line->seq = epoch;
        }
        if (line->dirty && line->oid < epoch) {
            // The previous epoch's version must be persisted before
            // it is overwritten (same role as NVOverlay's
            // store-eviction, but a direct NVM write here).
            stall += writeData(line_addr, now, EvictReason::StoreEvict);
        }
        line->dirty = true;
        line->oid = epoch;
    } else {
        line = tags.allocSlot(line_addr);
        if (line->valid() && line->dirty) {
            // A dirty line falling out of the on-chip version
            // tracking structure must be persisted now.
            stall += writeData(line->addr, now, EvictReason::Capacity);
        }
        tags.install(line, line_addr);
        line->dirty = true;
        line->oid = epoch;
        line->seq = epoch;
        stall += writeLog(now);
    }
    // Every dirty line's slot is marked: the walk and the shutdown
    // flush visit marked slots only.
    tags.mark(*line);

    if (storeClosesEpoch()) {
        ++stats.epochAdvances;
        scheduleWalk();
    }
    return stall;
}

void
PiclScheme::tick(Cycle now)
{
    unsigned budget = drainPerTick;
    while (budget > 0 && !drainQueue.empty()) {
        writeData(drainQueue.front(), now, EvictReason::TagWalk);
        ++stats.tagWalkWriteBacks;
        drainQueue.pop_front();
        --budget;
    }
}

Cycle
PiclScheme::finalize(Cycle now)
{
    advanceEpoch();
    scheduleWalk();
    while (!drainQueue.empty())
        tick(now);
    if (!walkerEnabled) {
        // Without the walker, finalize still flushes dirty state —
        // as a shutdown flush, not as walk traffic.
        tags.forEachMarked([&](CacheLine &line) {
            if (line.dirty) {
                writeData(line.addr, now, EvictReason::EpochFlush);
                line.dirty = false;
            }
        });
    }
    return std::max(now, nvm.drainCompletion());
}

void
PiclScheme::registerAudits(Auditor &auditor)
{
    auditor.add("picl.tags", [this] {
        tags.forEachValid([this](const CacheLine &line) {
            NVO_AUDIT(!line.dirty || tags.marked(line),
                      "dirty PiCL tag outside the marked slots");
        });
    });
}

} // namespace nvo
