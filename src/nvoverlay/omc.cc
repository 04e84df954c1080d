#include "nvoverlay/omc.hh"

#include <algorithm>
#include <utility>

#include "common/audit.hh"
#include "common/bitutil.hh"
#include "common/log.hh"
#include "fault/fault.hh"
#include "mem/persist_domain.hh"
#include "obs/ledger.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "tenant/tenant.hh"

namespace nvo
{

MnmBackend::MnmBackend(const Params &params, NvmModel &nvm_model,
                       RunStats &run_stats)
    : p(params), nvm(nvm_model), stats(run_stats),
      hInsertStall_(
          obs::metricRegistry().addHist("mnm.insert_stall_cycles")),
      hMergeRun_(obs::metricRegistry().addHist("mnm.merge_run_len")),
      hBufOcc_(obs::metricRegistry().addHist("mnm.buffer_occupancy")),
      minVers(params.numVds, 0)
{
    nvo_assert(p.numOmcs > 0 && p.numVds > 0);
    parts.resize(p.numOmcs);
    for (unsigned i = 0; i < p.numOmcs; ++i) {
        Addr base = p.poolBase + static_cast<Addr>(i) *
                                     p.poolBytesPerOmc;
        parts[i].pool =
            std::make_unique<PagePool>(base, p.poolBytesPerOmc);
        parts[i].pool->attachPersist(&nvm.persist());
        Part *part = &parts[i];
        parts[i].master = std::make_unique<MasterTable>(
            [this, part](std::uint32_t bytes) {
                part->pendingMetaBytes += bytes;
            });
        parts[i].master->attachPersist(&nvm.persist());
        if (p.useBuffer)
            parts[i].buffer = std::make_unique<OmcBuffer>(p.buffer);
    }
}

unsigned
MnmBackend::omcOf(Addr line_addr) const
{
    return static_cast<unsigned>((line_addr >> lineBytesLog2) %
                                 parts.size());
}

EpochTable &
MnmBackend::getTable(Part &part, EpochWide e)
{
    auto it = part.tables.find(e);
    if (it == part.tables.end()) {
        it = part.tables
                 .emplace(e, std::make_unique<EpochTable>(
                                 e, *part.pool, p.table,
                                 &part.tableBytes))
                 .first;
    }
    return *it->second;
}

Cycle
MnmBackend::deviceWrite(Addr nvm_addr, Cycle now,
                        obs::LedgerCause cause, tenant::Asid asid)
{
    // Transient device-write errors are retried with exponential
    // backoff; a persistent failure past the retry budget means the
    // DIMM is gone and recovery guarantees are off.
    Cycle stall = 0;
    unsigned attempts = 0;
    Cycle backoff = 1;
    while (NVO_FAULT_ERROR("omc.device_write")) {
        ++attempts;
        nvo_assert(attempts <= p.maxDeviceRetries,
                   "NVM write still failing after the retry budget");
        stats.extra["nvm_write_retries"] += 1;
        stall += backoff;
        now += backoff;
        backoff *= 2;
    }
    // Every NvmWriteKind::Data byte on the nvoverlay path funnels
    // through here, so attributing per cause — and per tenant — sums
    // exactly to the RunStats data-write total (the analyzer asserts
    // both partitions).
    NVO_LEDGER(dataWrite(cause, lineBytes, asid));
    if (tm_)
        tm_->noteDataBytes(asid, lineBytes);
    stall += nvm.persist()
                 .write(nvm_addr, lineBytes, now, NvmWriteKind::Data)
                 .stall;
    return stall;
}

Cycle
MnmBackend::flushPending(Part &part, const OmcBuffer::Pending &pending,
                         Cycle now)
{
    auto it = part.tables.find(pending.epoch);
    nvo_assert(it != part.tables.end(),
               "buffered version without its epoch table");
    Addr nvm_addr = it->second->lookupNvm(pending.addr);
    nvo_assert(nvm_addr != invalidAddr,
               "buffered version missing from its table");
    return deviceWrite(nvm_addr, now,
                       static_cast<obs::LedgerCause>(pending.cause),
                       tenant::asidOf(pending.addr));
}

Cycle
MnmBackend::insertVersion(Addr line_addr, EpochWide oid, SeqNo seq,
                          const LineData &content, Cycle now,
                          EvictReason why)
{
    unsigned oidx = omcOf(line_addr);
    Part &part = parts[oidx];
    const tenant::Asid asid = tenant::asidOf(line_addr);
    Cycle stall = 0;
    NVO_FAULT_POINT("omc.insert");
    NVO_TRACE(Omc, OmcInsert, obs::trackOmc(oidx), now, line_addr,
              oid);
    // Tenant policy: charge the token bucket and enforce the pool
    // quota before the version lands (the insert always proceeds —
    // over-quota tenants are throttled, never dropped).
    if (tm_)
        tm_->onInsert(asid, lineBytes, now);

    // Compaction pressure check (Sec. V-D / storage quota, Sec. V-F).
    if (p.compactionThreshold < 1.0 &&
        part.pool->utilization() >= p.compactionThreshold) {
        compact(now);
        ++stats.gcCompactions;
    }

    bool buffered = part.buffer && !bufferBypass;

    auto data = [&](Addr a, std::uint32_t) {
        stall += deviceWrite(a, now, obs::causeOf(why), asid);
    };
    auto reloc = [&](Addr a, std::uint32_t) {
        stall += deviceWrite(a, now, obs::LedgerCause::SubpageReloc,
                             asid);
        stats.extra["subpage_reloc_bytes"] += lineBytes;
    };
    auto meta = [&](std::uint32_t bytes) {
        part.pendingMetaBytes += bytes;
    };
    EpochTable::Sinks sinks;
    sinks.reloc = reloc;
    sinks.meta = meta;
    // When buffered, the 64 B version write is deferred until the
    // buffer evicts the (addr, epoch) slot; sinks.data stays empty.
    if (!buffered)
        sinks.data = data;

    EpochTable &table = getTable(part, oid);
    // A version at or behind rec-epoch lands in an already-merged
    // table (see the late-merge block below): note its page's
    // sub-page so a grow() that moves the page's mapped versions can
    // be followed in the master.
    const bool late = recEpoch_ != 0 && oid <= recEpoch_;
    const EpochTable::PageEntry *before =
        late ? table.pageEntry(pageAlign(line_addr)) : nullptr;
    const Addr late_old_sub = before ? before->subPage : invalidAddr;
    bool ok = table.insert(line_addr, seq, content, sinks);
    if (!ok) {
        // Pool exhausted: compact if enabled, else ask the OS for
        // more pages (paper Sec. V-D).
        if (p.compactionThreshold < 1.0) {
            compact(now);
            ++stats.gcCompactions;
            ok = table.insert(line_addr, seq, content, sinks);
        }
        if (!ok) {
            part.pool->extend(p.extendPages);
            stats.extra["pool_extensions"] += 1;
            ok = table.insert(line_addr, seq, content, sinks);
        }
        nvo_assert(ok, "pool exhausted even after extension");
    }
    NVO_LEDGER(
        insertVersion(oidx, line_addr, oid, obs::causeOf(why), now));

    // A version can land behind the recoverable epoch: the newest
    // dirty version transfers cache-to-cache on invalidation without
    // an OMC write (Fig. 6 optimization 2), so a line written in an
    // old epoch can outlive its source VD's certified min-ver inside
    // another VD and only reach us after rec-epoch passed its epoch.
    // mergeUpTo() never revisits merged epochs, so map the late
    // version into the master here — otherwise the recovered image
    // would silently miss it.
    if (late) {
        EpochTable::PageEntry *pe =
            table.pageEntry(pageAlign(line_addr));
        nvo_assert(pe != nullptr);
        // The master maps the page's other lines by address whether
        // or not this version is mapped below.
        if (late_old_sub != invalidAddr && pe->subPage != late_old_sub)
            remapRelocated(part, table, *pe);
        const MasterTable::Entry *cur = part.master->lookup(line_addr);
        if (cur == nullptr || cur->epoch <= oid) {
            NVO_FAULT_POINT("omc.late_merge");
            Addr nvm_addr = table.lookupNvm(line_addr);
            nvo_assert(nvm_addr != invalidAddr);
            auto replaced = masterInsert(part, line_addr, nvm_addr,
                                         oid);
            ++pe->liveMaster;
            if (replaced)
                unref(oidx, part, line_addr, *replaced, now);
            stats.extra["late_merges"] += 1;
            NVO_TRACE(Merge, LateMerge, obs::trackOmc(oidx), now,
                      line_addr, oid);
            NVO_LEDGER(merged(oidx, line_addr, oid, true, now));
            // The patch amends an already-published snapshot, so it
            // persists synchronously rather than waiting for the next
            // rec-epoch fence.
            nvm.persist().barrier();
            // A standby following the shipped stream has (or will
            // get) this epoch without the amendment — ship it too.
            if (replSink)
                replSink->onLateVersion(line_addr, oid, content, now);
        } else {
            // The master already maps a strictly newer epoch: the
            // late arrival is stale on arrival and will never be
            // reachable by recovery or time travel past its epoch's
            // merged tables. Terminate it now so it does not read as
            // a lifecycle leak.
            NVO_LEDGER(dropped(oidx, line_addr, oid, now));
        }
    }

    if (buffered) {
        auto result = part.buffer->insert(
            line_addr, oid,
            static_cast<unsigned>(obs::causeOf(why)));
        if (result.hit) {
            ++stats.omcBufferHits;
        } else {
            ++stats.omcBufferMisses;
            if (result.evicted) {
                NVO_TRACE(Omc, OmcBufferEvict, obs::trackOmc(oidx),
                          now, result.evicted->addr,
                          result.evicted->epoch);
                stall += flushPending(part, *result.evicted, now);
            }
        }
        NVO_TRACE(Omc, OmcOccupancy, obs::trackOmc(oidx), now,
                  part.buffer->occupancy(), 0);
        NVO_METRIC(record(hBufOcc_, part.buffer->occupancy()));
    }
    if (nvm.persist().armed()) {
        EpochWide &e = acked[line_addr];
        e = std::max(e, oid);
    }
    NVO_METRIC(record(hInsertStall_, stall));
    return stall;
}

EpochWide
MnmBackend::ackedEpoch(Addr line_addr) const
{
    const EpochWide *e = acked.probe(line_addr);
    return e ? *e : 0;
}

std::optional<MasterTable::Entry>
MnmBackend::masterInsert(Part &part, Addr line_addr, Addr nvm_addr,
                         EpochWide e)
{
    // masterInsert IS the sanctioned mutation point: every caller
    // pairs it with the ledger insert/merge hook. The master journals
    // the entry it replaced while the persist domain is armed; a
    // crash unwind restores modelled state the ledger never saw.
    // The tenant::Key carries the ASID tag into the tree.
    return part.master->insert(tenant::keyOf(line_addr), nvm_addr, e);
}

void
MnmBackend::unref(unsigned oidx, Part &part, Addr line_addr,
                  const MasterTable::Entry &old_entry, Cycle now)
{
    // Whatever the replaced entry mapped is unreachable from the
    // master now — record the lifecycle exit even when the version's
    // epoch table is long gone (dropMergedTables).
    NVO_LEDGER(dropped(oidx, line_addr, old_entry.epoch, now));
    auto it = part.tables.find(old_entry.epoch);
    if (it == part.tables.end())
        return;
    EpochTable::PageEntry *pe =
        it->second->pageEntry(pageAlign(line_addr));
    if (!pe || pe->reclaimed || pe->liveMaster == 0)
        return;
    --pe->liveMaster;
    if (pe->liveMaster == 0 && p.autoReclaim &&
        old_entry.epoch <= recEpoch_)
        reclaimSubPage(part, *pe);
}

void
MnmBackend::remapRelocated(Part &part, const EpochTable &table,
                           const EpochTable::PageEntry &pe)
{
    for (unsigned li = 0; li < linesPerPage; ++li) {
        if (!((pe.bitmap >> li) & 1ull))
            continue;
        const Addr line_addr =
            pe.pageAddr + static_cast<Addr>(li) * lineBytes;
        const auto *entry = part.master->lookup(line_addr);
        if (entry && entry->epoch == table.epochId())
            masterInsert(part, line_addr, table.lookupNvm(line_addr),
                         table.epochId());
    }
}

void
MnmBackend::reclaimSubPage(Part &part, EpochTable::PageEntry &pe)
{
    // Every version buried here already exited the ledger: unref
    // terminated the master-superseded ones and the stale-arrival /
    // compaction paths handled the rest, so raw pool frees are safe.
    // The overlay page's tag credits the owning tenant's occupancy.
    const tenant::Asid asid = tenant::asidOf(pe.pageAddr);
    part.pool->dropHeader(pe.subPage);
    part.pool->freeLines(pe.subPage, pe.capacity, asid);
    pe.reclaimed = true;
}

void
MnmBackend::flushMeta(Part &part, Cycle now)
{
    while (part.pendingMetaBytes > 0) {
        NVO_FAULT_POINT("omc.meta.flush");
        std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(part.pendingMetaBytes, lineBytes));
        Addr addr = p.poolBase +
                    static_cast<Addr>(parts.size()) *
                        p.poolBytesPerOmc +
                    (part.metaCursor % (1ull << 26));
        part.metaCursor += chunk;
        nvm.persist().write(addr, chunk, now, NvmWriteKind::Mapping);
        part.pendingMetaBytes -= chunk;
    }
}

void
MnmBackend::persistRecEpoch(Cycle now)
{
    NVO_FAULT_POINT("omc.rec_epoch.persist");
    Addr addr = p.poolBase - lineBytes;   // fixed known location
    nvm.persist().write(addr, 8, now, NvmWriteKind::Mapping);
    // The paper's ordering fence (Sec. V-B): every merge write must
    // be durable before the rec-epoch word names it recoverable.
    // Only the deliberately-buggy test configuration skips it.
    if (!p.testSkipRecBarrier)
        nvm.persist().barrier();
    durableRecEpoch_ = recEpoch_;
}

void
MnmBackend::mergeUpTo(EpochWide from, EpochWide upto, Cycle now)
{
    for (unsigned oidx = 0; oidx < parts.size(); ++oidx) {
        Part &part = parts[oidx];
        auto it = part.tables.upper_bound(from);
        while (it != part.tables.end() && it->first <= upto) {
            EpochTable &table = *it->second;
            NVO_FAULT_POINT("omc.merge.table");
            NVO_TRACE(Merge, TableMerge, obs::trackOmc(oidx), now,
                      it->first, 0);
            std::uint64_t run = 0;
            table.forEachVersion([&](Addr line_addr, Addr nvm_addr) {
                NVO_FAULT_POINT("omc.merge.version");
                ++run;
                if (p.testDropMerge && (++dropMergeTick % 5) == 0)
                    return;   // seeded bug: silently skip the merge
                auto replaced = masterInsert(part, line_addr, nvm_addr,
                                             table.epochId());
                EpochTable::PageEntry *pe =
                    table.pageEntry(pageAlign(line_addr));
                nvo_assert(pe != nullptr);
                ++pe->liveMaster;
                if (replaced)
                    unref(oidx, part, line_addr, *replaced, now);
                NVO_LEDGER(merged(oidx, line_addr, table.epochId(),
                                  false, now));
            });
            NVO_METRIC(record(hMergeRun_, run));
            ++mergeCount;
            if (p.dropMergedTables) {
                // DRAM pages of merged per-epoch tables can be
                // reclaimed immediately (paper Sec. V-D); dropping
                // the table forfeits time travel into this epoch.
                it = part.tables.erase(it);
            } else {
                ++it;
            }
        }
        flushMeta(part, now);
    }
}

void
MnmBackend::reportMinVer(unsigned vd, EpochWide min_ver, Cycle now)
{
    nvo_assert(vd < minVers.size());
    minVers[vd] = std::max(minVers[vd], min_ver);

    EpochWide smallest = minVers[0];
    for (EpochWide v : minVers)
        smallest = std::min(smallest, v);
    if (smallest == 0)
        return;   // some VD has not certified anything yet
    EpochWide candidate = smallest - 1;
    if (candidate <= recEpoch_)
        return;

    // rec-epoch moves first so GC sees the new bound while merge
    // replacements dereference stale versions.
    NVO_FAULT_POINT("omc.rec_epoch.advance");
    EpochWide old_rec = recEpoch_;
    NVO_TRACE(Merge, RecEpochAdvance, obs::trackSim, now, candidate,
              old_rec);
    recEpoch_ = candidate;
    // Ship the newly recoverable epochs' deltas before mergeUpTo
    // retires their tables — afterwards only the merged master (and
    // possibly reclaimed sub-pages) remains.
    if (replSink)
        replSink->onEpochsRecoverable(old_rec, candidate, now);
    mergeUpTo(old_rec, candidate, now);
    persistRecEpoch(now);
}

void
MnmBackend::drainBuffers(Cycle now)
{
    for (unsigned oidx = 0; oidx < parts.size(); ++oidx) {
        Part &part = parts[oidx];
        if (!part.buffer)
            continue;
        auto pendings = part.buffer->drainAll();
        NVO_TRACE(Omc, OmcBufferDrain, obs::trackOmc(oidx), now,
                  pendings.size(), 0);
        for (const auto &pending : pendings) {
            NVO_FAULT_POINT("omc.drain");
            flushPending(part, pending, now);
        }
    }
}

Cycle
MnmBackend::finalize(Cycle now)
{
    drainBuffers(now);
    setBufferBypass(true);
    for (auto &part : parts)
        flushMeta(part, now);
    persistRecEpoch(now);
    // Clean shutdown leaves nothing in flight, even versions newer
    // than the rec-epoch fence just issued.
    nvm.persist().barrier();
    updateStats();
    return std::max(now, nvm.drainCompletion());
}

void
MnmBackend::compact(Cycle now)
{
    for (unsigned oidx = 0; oidx < parts.size(); ++oidx) {
        Part &part = parts[oidx];
        // Oldest merged epoch still holding live versions.
        for (auto &kv : part.tables) {
            EpochWide e = kv.first;
            if (e > recEpoch_)
                break;
            EpochTable &table = *kv.second;
            bool any_live = false;
            table.forEachPage([&](EpochTable::PageEntry &pe) {
                if (!pe.reclaimed && pe.liveMaster > 0)
                    any_live = true;
            });
            bool any_present = false;
            table.forEachPage([&](EpochTable::PageEntry &pe) {
                if (!pe.reclaimed)
                    any_present = true;
            });
            if (!any_present)
                continue;
            if (e == recEpoch_)
                break;   // nothing newer to copy into
            NVO_FAULT_POINT("omc.compact");
            NVO_TRACE(Merge, Compaction, obs::trackOmc(oidx), now, e,
                      0);
            if (!any_live) {
                // Whole epoch stale: reclaim its sub-pages outright.
                table.forEachPage([&](EpochTable::PageEntry &pe) {
                    if (pe.reclaimed || pe.subPage == invalidAddr)
                        return;
                    reclaimSubPage(part, pe);
                });
                continue;
            }
            // Copy still-live versions forward to the newest merged
            // epoch, as if those addresses were written now.
            EpochTable &target = getTable(part, recEpoch_);
            // cur_asid tracks the tenant of the line being moved so
            // the copy (and any relocation it triggers — same page,
            // same tenant) is attributed to its owner.
            tenant::Asid cur_asid = 0;
            auto data = [&](Addr a, std::uint32_t) {
                deviceWrite(a, now, obs::LedgerCause::CompactionCopy,
                            cur_asid);
                stats.gcBytesCopied += lineBytes;
            };
            auto meta = [&](std::uint32_t bytes) {
                part.pendingMetaBytes += bytes;
            };
            EpochTable::Sinks sinks;
            sinks.data = data;
            sinks.meta = meta;
            std::vector<Addr> moved;
            table.forEachVersion([&](Addr line_addr, Addr) {
                const auto *entry = part.master->lookup(line_addr);
                if (!entry || entry->epoch != e)
                    return;
                LineData content;
                bool ok = table.readVersion(line_addr, content);
                nvo_assert(ok);
                moved.push_back(line_addr);
                (void)content;
            });
            // Fairness: serve tenants descending-occupancy first with
            // a rotating tie-break, so one hot tenant cannot
            // monopolize reclamation order across passes.
            if (tm_)
                tm_->orderForCompaction(moved);
            for (Addr line_addr : moved) {
                cur_asid = tenant::asidOf(line_addr);
                NVO_FAULT_POINT("omc.compact.copy");
                LineData content;
                table.readVersion(line_addr, content);
                const EpochTable::PageEntry *before =
                    target.pageEntry(pageAlign(line_addr));
                const Addr old_sub =
                    before ? before->subPage : invalidAddr;
                bool ok = target.insert(line_addr, ~static_cast<SeqNo>(0),
                                        content, sinks);
                if (!ok)
                    return;   // target pool full; give up this pass
                NVO_LEDGER(insertVersion(
                    oidx, line_addr, recEpoch_,
                    obs::LedgerCause::CompactionCopy, now));
                EpochTable::PageEntry *tpe =
                    target.pageEntry(pageAlign(line_addr));
                // The target is already merged: a grow() moved
                // versions the master maps by address.
                if (old_sub != invalidAddr && tpe->subPage != old_sub)
                    remapRelocated(part, target, *tpe);
                Addr fresh = target.lookupNvm(line_addr);
                auto replaced = masterInsert(part, line_addr, fresh,
                                             recEpoch_);
                ++tpe->liveMaster;
                // The source version moved (not died); mark it first
                // so the unref of its replaced master entry — the
                // same (line, epoch) — stays a no-op.
                NVO_LEDGER(compacted(oidx, line_addr, e, recEpoch_,
                                     now));
                NVO_LEDGER(merged(oidx, line_addr, recEpoch_, false,
                                  now));
                if (replaced)
                    unref(oidx, part, line_addr, *replaced, now);
            }
            // Reclaim the source epoch's storage.
            table.forEachPage([&](EpochTable::PageEntry &pe) {
                if (pe.reclaimed || pe.subPage == invalidAddr)
                    return;
                nvo_assert(pe.liveMaster == 0,
                           "live version left after compaction");
                reclaimSubPage(part, pe);
            });
            flushMeta(part, now);
            break;   // one source epoch per pass
        }
    }
    // A compaction pass rewrote master entries of epochs at or below
    // the published rec-epoch; fence before anything can observe it.
    nvm.persist().barrier();
}

void
MnmBackend::rebuildTables()
{
    for (auto &part : parts) {
        part.pool->forEachHeader(
            [&](Addr sub_page, const PagePool::SubPageHeader &hdr) {
                getTable(part, hdr.epoch)
                    .adoptSubPage(sub_page, hdr);
            });
        // GC refcounts come from what the master still maps.
        part.master->forEach(
            [&](Addr line_addr, const MasterTable::Entry &entry) {
                auto it = part.tables.find(entry.epoch);
                if (it == part.tables.end())
                    return;
                EpochTable::PageEntry *pe =
                    it->second->pageEntry(pageAlign(line_addr));
                if (pe && !pe->reclaimed)
                    ++pe->liveMaster;
            });
    }
}

void
MnmBackend::crashReset()
{
    // Volatile lifecycle bookkeeping dies with the run; the post-
    // crash epoch/provenance space would alias pre-crash entries.
    NVO_LEDGER(reset());
    // Power failure. Battery-backed buffer pendings defer only the
    // *timing* of device writes — the content already sits in the
    // pool image — so they are simply discarded; per-epoch DRAM
    // tables and unflushed metadata vanish with them.
    for (auto &part : parts) {
        if (part.buffer)
            part.buffer->drainAll();
        part.tables.clear();
    }
    // Truncate the modelled NVM back to the durable prefix, then
    // target the last fenced rec-epoch.
    nvm.persist().truncateToDurable();
    for (auto &part : parts)
        part.pendingMetaBytes = 0;
    recEpoch_ = durableRecEpoch_;
    // Walker certifications died with the frontend; re-seed min-vers
    // at the value the surviving rec-epoch implies so the rec-epoch
    // invariant (rec-epoch == min(min-vers) - 1) keeps holding.
    for (auto &v : minVers)
        v = recEpoch_ == 0 ? 0 : recEpoch_ + 1;
    bufferBypass = false;
    rebuildTables();
}

bool
MnmBackend::readMaster(Addr line_addr, LineData &out) const
{
    const Part &part = parts[omcOf(line_addr)];
    const auto *entry = part.master->lookup(line_addr);
    if (!entry)
        return false;
    part.pool->readLine(entry->nvmAddr, out);
    return true;
}

void
MnmBackend::forEachMasterEntry(
    const std::function<void(Addr, const MasterTable::Entry &)> &fn)
    const
{
    for (const auto &part : parts)
        part.master->forEach(fn);
}

bool
MnmBackend::readSnapshot(Addr line_addr, EpochWide e, LineData &out,
                         EpochWide *found_epoch) const
{
    const Part &part = parts[omcOf(line_addr)];
    // Fall-through: largest E' <= e whose table maps the address.
    auto it = part.tables.upper_bound(e);
    while (it != part.tables.begin()) {
        --it;
        if (it->second->readVersion(line_addr, out)) {
            if (found_epoch)
                *found_epoch = it->first;
            return true;
        }
        if (it == part.tables.begin())
            break;
    }
    // Tables may have been dropped after merging; fall back to the
    // master image when its version is old enough.
    const auto *entry = part.master->lookup(line_addr);
    if (entry && entry->epoch <= e) {
        part.pool->readLine(entry->nvmAddr, out);
        if (found_epoch)
            *found_epoch = entry->epoch;
        return true;
    }
    return false;
}

void
MnmBackend::updateStats()
{
    stats.masterTableBytes = masterNodeBytesTotal();
    stats.masterMappedLines = masterMappedLinesTotal();
    stats.epochTableBytes = epochTableBytesTotal();
    stats.poolPagesInUse = poolPagesInUseTotal();
}

void
MnmBackend::audit() const
{
    if (!audit::enabled)
        return;

    // rec-epoch protocol (Sec. V-B): the only writer is
    // reportMinVer, which sets it to min(min-vers) - 1, and min-vers
    // never regress; so the equality holds at every quiescent point
    // once all VDs have certified something.
    EpochWide smallest = minVers.empty() ? 0 : minVers[0];
    for (EpochWide v : minVers)
        smallest = std::min(smallest, v);
    if (smallest == 0)
        NVO_AUDIT(recEpoch_ == 0,
                  "rec-epoch advanced before every VD certified");
    else
        NVO_AUDIT(recEpoch_ == smallest - 1,
                  "rec-epoch diverged from min(min-vers) - 1");

    for (unsigned i = 0; i < parts.size(); ++i) {
        const Part &part = parts[i];
        part.pool->audit();
        part.master->audit();

        // Live sub-page extents, sorted for point lookups below.
        std::vector<std::pair<Addr, Addr>> extents;
        part.pool->forEachHeader(
            [&extents](Addr sub, const PagePool::SubPageHeader &hdr) {
                extents.emplace_back(
                    sub, sub + static_cast<Addr>(hdr.capacityLines) *
                                   lineBytes);
            });
        std::sort(extents.begin(), extents.end());
        auto in_live_sub_page = [&extents](Addr a) {
            auto it = std::upper_bound(
                extents.begin(), extents.end(),
                std::make_pair(a, ~static_cast<Addr>(0)));
            if (it == extents.begin())
                return false;
            --it;
            return a >= it->first && a + lineBytes <= it->second;
        };

        std::uint64_t table_bytes = 0;
        for (const auto &kv : part.tables) {
            NVO_AUDIT(kv.first == kv.second->epochId(),
                      "epoch table keyed under the wrong epoch");
            kv.second->audit();
            table_bytes += kv.second->tableBytes();

            // Merge completeness: tables at or below rec-epoch were
            // folded into the master when rec-epoch advanced (or, for
            // versions arriving late behind rec-epoch, mapped by
            // insertVersion's late-merge path), and the master never
            // regresses to an older epoch. A violation here means a
            // version certified recoverable is invisible to recovery
            // — a silent snapshot hole.
            if (kv.first > recEpoch_)
                continue;
            kv.second->forEachVersion(
                [&part, &kv](Addr line_addr, Addr) {
                    const auto *entry =
                        part.master->lookup(line_addr);
                    NVO_AUDIT(entry != nullptr,
                              "merged version missing from the "
                              "master table");
                    NVO_AUDIT(!entry || entry->epoch >= kv.first,
                              "master maps an older epoch than a "
                              "merged table");
                });
        }
        // updateStats reports the running footprint; it must equal a
        // rescan of every retained table.
        NVO_AUDIT(part.tableBytes == table_bytes,
                  "running epoch-table footprint diverged from its "
                  "tables");

        part.master->forEach(
            [this, i, &part, &in_live_sub_page](
                Addr line_addr, const MasterTable::Entry &entry) {
                NVO_AUDIT(omcOf(line_addr) == i,
                          "master entry filed in the wrong OMC "
                          "partition");
                NVO_AUDIT(part.pool->pageAllocated(entry.nvmAddr),
                          "master entry points into an unallocated "
                          "pool page");
                NVO_AUDIT(in_live_sub_page(entry.nvmAddr),
                          "master entry points outside every live "
                          "sub-page");
                NVO_AUDIT(entry.epoch <= recEpoch_,
                          "master maps a version newer than the "
                          "recoverable epoch");
            });

        if (part.buffer) {
            part.buffer->audit();
            part.buffer->forEachPending(
                [&part](const OmcBuffer::Pending &pending) {
                    auto it = part.tables.find(pending.epoch);
                    NVO_AUDIT(it != part.tables.end(),
                              "buffered version lost its epoch "
                              "table");
                    NVO_AUDIT(it == part.tables.end() ||
                                  it->second->lookupNvm(
                                      pending.addr) != invalidAddr,
                              "buffered version missing from its "
                              "table");
                });
        }
    }
    acked.audit();
}

const MasterTable &
MnmBackend::master(unsigned omc) const
{
    return *parts[omc].master;
}

PagePool &
MnmBackend::pool(unsigned omc)
{
    return *parts[omc].pool;
}

EpochTable *
MnmBackend::epochTable(unsigned omc, EpochWide e)
{
    auto it = parts[omc].tables.find(e);
    return it == parts[omc].tables.end() ? nullptr : it->second.get();
}

std::uint64_t
MnmBackend::masterNodeBytesTotal() const
{
    std::uint64_t total = 0;
    for (const auto &part : parts)
        total += part.master->nodeBytes();
    return total;
}

std::uint64_t
MnmBackend::masterMappedLinesTotal() const
{
    std::uint64_t total = 0;
    for (const auto &part : parts)
        total += part.master->mappedLines();
    return total;
}

std::uint64_t
MnmBackend::epochTableBytesTotal() const
{
    std::uint64_t total = 0;
    for (const auto &part : parts)
        total += part.tableBytes;
    return total;
}

std::uint64_t
MnmBackend::poolPagesInUseTotal() const
{
    std::uint64_t total = 0;
    for (const auto &part : parts)
        total += part.pool->pagesInUse();
    return total;
}

std::uint64_t
MnmBackend::poolPagesTotal() const
{
    std::uint64_t total = 0;
    for (const auto &part : parts)
        total += part.pool->totalPages();
    return total;
}

std::uint64_t
MnmBackend::poolLinesOf(tenant::Asid asid) const
{
    std::uint64_t total = 0;
    for (const auto &part : parts)
        total += part.pool->linesInUse(asid);
    return total;
}

} // namespace nvo
