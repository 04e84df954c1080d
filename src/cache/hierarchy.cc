#include "cache/hierarchy.hh"

#include <algorithm>
#include <sstream>

#include "common/audit.hh"
#include "common/bitutil.hh"
#include "common/log.hh"
#include "obs/ledger.hh"
#include "obs/trace.hh"

namespace nvo
{

Hierarchy::Hierarchy(const Params &params, BackingStore &backing_store,
                     DramModel &dram_model, RunStats &run_stats)
    : p(params), backing(backing_store), dram(dram_model),
      stats(run_stats)
{
    nvo_assert(p.numCores > 0 && p.coresPerVd > 0);
    nvo_assert(p.numCores % p.coresPerVd == 0,
               "cores must divide evenly into VDs");
    numVds_ = p.numCores / p.coresPerVd;
    nvo_assert(numVds_ <= 32, "directory sharer mask is 32 bits");
    nvo_assert(p.numLlcSlices > 0);

    for (unsigned c = 0; c < p.numCores; ++c)
        l1s.push_back(std::make_unique<L1Cache>(p.l1, c));
    for (unsigned v = 0; v < numVds_; ++v)
        l2s.push_back(std::make_unique<L2Cache>(p.l2, v, p.coresPerVd));
    for (unsigned s = 0; s < p.numLlcSlices; ++s)
        slices.push_back(std::make_unique<LlcSlice>(p.llc));
}

EpochWide
Hierarchy::curEpoch(unsigned vd) const
{
    return vctrl ? vctrl->vdEpoch(vd) : 0;
}

unsigned
Hierarchy::sliceOf(Addr line_addr) const
{
    return static_cast<unsigned>((line_addr >> lineBytesLog2) %
                                 slices.size());
}

void
Hierarchy::readCurrent(Addr line_addr, LineData &out) const
{
    backing.readLine(line_addr, out);
}

Cycle
Hierarchy::observeRv(unsigned vd, EpochWide rv, Cycle now)
{
    if (!vctrl)
        return 0;
    return vctrl->observeRemoteVersion(vd, rv, now);
}

Cycle
Hierarchy::emitVersion(unsigned vd, Addr line_addr, EpochWide oid,
                       SeqNo seq, const LineData *sealed,
                       EvictReason why, Cycle now)
{
    if (!vctrl)
        return 0;
    ++stats.evictReason[static_cast<std::size_t>(why)];
    NVO_TRACE(Cache, CacheWriteBack, obs::trackVd(vd), now, line_addr,
              static_cast<std::uint64_t>(why));
    Cycle stall;
    if (sealed) {
        stall = vctrl->acceptVersion(vd, line_addr, oid, seq, *sealed,
                                     why, now);
    } else {
        // Live version: the content is the architectural image, so
        // the recency label must be the line's latest committed
        // seqno (cached per-slot seqnos can lag same-epoch stores
        // that hit the L1).
        LineData live;
        readCurrent(line_addr, live);
        stall = vctrl->acceptVersion(vd, line_addr, oid,
                                     backing.lineSeq(line_addr), live,
                                     why, now);
    }
    // Back-pressure is charged to the operation that triggered the
    // eviction, whichever internal path it came through.
    opStall += stall;
    return stall;
}

void
Hierarchy::llcEvictVictim(CacheLine &victim, Cycle now)
{
    if (victim.dirty)
        dram.write(victim.addr, lineBytes, now);
    victim.reset();
}

void
Hierarchy::llcInsert(Addr line_addr, EpochWide oid, SeqNo seq, bool dirty,
                     Cycle now)
{
    CacheArray &arr = slices[sliceOf(line_addr)]->array();
    CacheLine *line = arr.lookup(line_addr);
    if (!line) {
        line = arr.allocSlot(line_addr);
        if (line->valid())
            llcEvictVictim(*line, now);
        arr.install(line, line_addr);
        line->state = CohState::S;
    }
    // OIDs only move forward at the LLC (Sec. IV-A4).
    if (oid >= line->oid) {
        line->oid = oid;
        line->seq = std::max(line->seq, seq);
    }
    line->dirty = line->dirty || dirty;
}

Cycle
Hierarchy::l2AcceptVersion(unsigned vd, Addr line_addr, EpochWide oid,
                           SeqNo seq, std::unique_ptr<LineData> sealed,
                           EvictReason why, bool to_llc, Cycle now)
{
    L2Cache &l2c = *l2s[vd];
    CacheLine *line = l2c.array().probe(line_addr);
    nvo_assert(line != nullptr, "inclusion: L1 version with no L2 line");

    Cycle stall = 0;
    if (vctrl && line->dirty && line->oid < oid) {
        // The L2 holds an older immutable version; evict it before
        // overwriting (paper Fig. 4c). Sealed by construction: a
        // newer version existed above it.
        nvo_assert(line->sealed(),
                   "older L2 version displaced while live");
        if (to_llc)
            llcInsert(line_addr, line->oid, line->seq, true, now);
        stall += emitVersion(vd, line_addr, line->oid, line->seq,
                             line->sealedData.get(), why, now);
    }
    line->dirty = true;
    line->oid = oid;
    line->seq = seq;
    line->sealedData = std::move(sealed);
    l2c.setModified(*line);
    return stall;
}

Cycle
Hierarchy::handleL1Victim(unsigned core, CacheLine &victim, Cycle now)
{
    unsigned vd = vdOfCore(core);
    L2Cache &l2c = *l2s[vd];
    CacheLine *l2_line = l2c.array().probe(victim.addr);
    nvo_assert(l2_line != nullptr, "inclusion violated on L1 eviction");
    L2Cache::removeSharer(*l2_line, l2c.localIdx(core));

    Cycle stall = 0;
    if (victim.state == CohState::M && victim.dirty) {
        // PUTX: the (live, newest) dirty version moves to the L2.
        stall = l2AcceptVersion(vd, victim.addr, victim.oid, victim.seq,
                                nullptr, EvictReason::Capacity, true,
                                now);
    }
    victim.reset();
    return stall;
}

Cycle
Hierarchy::handleL2Victim(unsigned vd, CacheLine &victim, Cycle now)
{
    Addr addr = victim.addr;
    Cycle stall = 0;
    bool l1_version_written = false;
    EpochWide newest_oid = victim.oid;

    // Back-invalidate local L1 copies (inclusive L2), merging any
    // dirty L1 version into the write back.
    for (unsigned i = 0; i < p.coresPerVd; ++i) {
        if (!L2Cache::hasSharer(victim, i))
            continue;
        unsigned core = vd * p.coresPerVd + i;
        CacheLine *l1_line = l1s[core]->array().probe(addr);
        nvo_assert(l1_line != nullptr, "sharer bit without L1 line");
        if (l1_line->oid > newest_oid)
            newest_oid = l1_line->oid;
        if (l1_line->state == CohState::M && l1_line->dirty) {
            if (vctrl && victim.dirty && victim.oid < l1_line->oid) {
                // Two distinct versions leave the VD: the sealed old
                // L2 version and the newer live L1 version.
                nvo_assert(victim.sealed());
                llcInsert(addr, victim.oid, victim.seq, true, now);
                stall += emitVersion(vd, addr, victim.oid, victim.seq,
                                     victim.sealedData.get(),
                                     EvictReason::Capacity, now);
            }
            llcInsert(addr, l1_line->oid, l1_line->seq, true, now);
            stall += emitVersion(vd, addr, l1_line->oid, l1_line->seq,
                                 nullptr, EvictReason::Capacity, now);
            l1_version_written = true;
            newest_oid = l1_line->oid;
        }
        l1_line->reset();
    }

    if (!l1_version_written) {
        // Non-inclusive LLC allocates on L2 eviction regardless of
        // dirtiness (victim-cache behaviour); only dirty versions
        // additionally flow to the OMC. The OID carried outward is
        // the newest across the L2 slot and any (clean) L1 copies.
        llcInsert(addr, newest_oid, victim.seq, victim.dirty, now);
        if (victim.dirty) {
            stall += emitVersion(vd, addr, victim.oid, victim.seq,
                                 victim.sealed()
                                     ? victim.sealedData.get()
                                     : nullptr,
                                 EvictReason::Capacity, now);
        }
    }

    // Release directory presence. The entry lists exactly the VDs whose
    // L2 holds the line, and an owner is always a sharer, so once the
    // last sharer leaves the entry equals a fresh one: erase it. This
    // may move other entries of the slice (see LlcSlice::dir).
    LlcSlice &sl = *slices[sliceOf(addr)];
    if (DirEntry *e = sl.dirProbe(addr)) {
        e->removeSharer(vd);
        if (e->ownerVd == static_cast<int>(vd))
            e->ownerVd = -1;
        if (e->sharerVds == 0)
            sl.dirErase(addr);
    }
    victim.reset();
    return stall;
}

CacheLine *
Hierarchy::fillL1(unsigned core, Addr addr, CohState st, EpochWide oid,
                  SeqNo seq, bool dirty, Cycle now)
{
    CacheArray &arr = l1s[core]->array();
    CacheLine *slot = arr.allocSlot(addr);
    if (slot->valid())
        handleL1Victim(core, *slot, now);
    arr.install(slot, addr);
    slot->state = st;
    slot->oid = oid;
    slot->seq = seq;
    slot->dirty = dirty;
    return slot;
}

CacheLine *
Hierarchy::fillL2(unsigned vd, Addr addr, CohState st, EpochWide oid,
                  SeqNo seq, bool dirty, Cycle now)
{
    L2Cache &l2c = *l2s[vd];
    CacheArray &arr = l2c.array();
    CacheLine *slot = arr.allocSlot(addr);
    if (slot->valid())
        handleL2Victim(vd, *slot, now);
    else
        l2c.countFill();
    arr.install(slot, addr);
    if (st == CohState::M)
        l2c.setModified(*slot);
    else
        slot->state = st;
    slot->oid = oid;
    slot->seq = seq;
    slot->dirty = dirty;
    return slot;
}

Cycle
Hierarchy::pullL1Version(unsigned vd, unsigned core, CacheLine *l1_line,
                         CohState new_l1_state, EvictReason why,
                         Cycle now)
{
    bool to_llc = why != EvictReason::Coherence;
    Cycle stall = l2AcceptVersion(vd, l1_line->addr, l1_line->oid,
                                  l1_line->seq, nullptr, why, to_llc,
                                  now);
    l1_line->dirty = false;
    if (new_l1_state == CohState::I) {
        L2Cache &l2c = *l2s[vd];
        CacheLine *l2_line = l2c.array().probe(l1_line->addr);
        nvo_assert(l2_line != nullptr);
        L2Cache::removeSharer(*l2_line, l2c.localIdx(core));
        l1_line->reset();
    } else {
        l1_line->state = new_l1_state;
    }
    return stall;
}

Hierarchy::InvResult
Hierarchy::invalidateVd(unsigned vd, Addr addr, Cycle now)
{
    L2Cache &l2c = *l2s[vd];
    CacheLine *l2_line = l2c.array().probe(addr);
    nvo_assert(l2_line != nullptr, "directory sharer without L2 line");

    InvResult result;

    // Locate a dirty L1 copy (at most one can be in M).
    CacheLine *l1_m = nullptr;
    for (unsigned i = 0; i < p.coresPerVd; ++i) {
        if (!L2Cache::hasSharer(*l2_line, i))
            continue;
        unsigned core = vd * p.coresPerVd + i;
        CacheLine *l1_line = l1s[core]->array().probe(addr);
        nvo_assert(l1_line != nullptr);
        if (l1_line->state == CohState::M && l1_line->dirty) {
            nvo_assert(l1_m == nullptr, "two M copies in one VD");
            l1_m = l1_line;
        }
    }

    if (l1_m) {
        // Optimization 2 (Fig. 6): the newest dirty version transfers
        // cache-to-cache; no OMC write for it. The older sealed L2
        // version goes to the OMC only (optimization 1).
        result.c2cDirty = true;
        result.oid = l1_m->oid;
        result.seq = l1_m->seq;
        if (vctrl && l2_line->dirty && l2_line->oid < l1_m->oid) {
            nvo_assert(l2_line->sealed());
            emitVersion(vd, addr, l2_line->oid, l2_line->seq,
                        l2_line->sealedData.get(),
                        EvictReason::Coherence, now);
        }
    } else if (l2_line->dirty) {
        nvo_assert(!l2_line->sealed(),
                   "sealed L2 version cannot be the newest");
        result.c2cDirty = true;
        result.oid = l2_line->oid;
        result.seq = l2_line->seq;
    }

    // Invalidate all L1 copies and the L2 line.
    for (unsigned i = 0; i < p.coresPerVd; ++i) {
        if (!L2Cache::hasSharer(*l2_line, i))
            continue;
        unsigned core = vd * p.coresPerVd + i;
        CacheLine *l1_line = l1s[core]->array().probe(addr);
        if (l1_line)
            l1_line->reset();
    }
    l2c.invalidate(*l2_line);
    return result;
}

EpochWide
Hierarchy::downgradeVd(unsigned vd, Addr addr, Cycle now)
{
    L2Cache &l2c = *l2s[vd];
    CacheLine *l2_line = l2c.array().probe(addr);
    nvo_assert(l2_line != nullptr, "directory owner without L2 line");

    // Pull a dirty L1 copy down into the L2 first (Fig. 5a/5b).
    for (unsigned i = 0; i < p.coresPerVd; ++i) {
        if (!L2Cache::hasSharer(*l2_line, i))
            continue;
        unsigned core = vd * p.coresPerVd + i;
        CacheLine *l1_line = l1s[core]->array().probe(addr);
        nvo_assert(l1_line != nullptr);
        if (l1_line->state == CohState::M && l1_line->dirty) {
            pullL1Version(vd, core, l1_line, CohState::S,
                          EvictReason::Coherence, now);
        } else {
            l1_line->state = CohState::S;
        }
    }

    // Write the newest version back to LLC (current image) and OMC
    // (persistence), then everyone ends in S (Fig. 5c).
    if (l2_line->dirty) {
        nvo_assert(!vctrl || !l2_line->sealed(),
                   "sealed L2 version cannot be the newest");
        llcInsert(addr, l2_line->oid, l2_line->seq, true, now);
        emitVersion(vd, addr, l2_line->oid, l2_line->seq, nullptr,
                    EvictReason::Coherence, now);
        l2_line->dirty = false;
        l2_line->sealedData.reset();
    }
    l2_line->state = CohState::S;
    return l2_line->oid;
}

CacheLine *
Hierarchy::fetchIntoL2(unsigned vd, Addr addr, CacheLine *mine,
                       bool exclusive, Cycle now, Cycle &lat)
{
    unsigned slice_idx = sliceOf(addr);
    LlcSlice &sl = *slices[slice_idx];
    if (p.noc)
        lat += p.noc->vdToSlice(vd, slice_idx) + p.llcArrayLatency;
    else
        lat += sl.latency();
    DirEntry &e = sl.dir(addr);

    EpochWide rv = 0;
    SeqNo rseq = 0;
    bool c2c_dirty = false;
    bool have_rv = false;

    // Snoop a remote owner.
    if (e.ownerVd >= 0 && e.ownerVd != static_cast<int>(vd)) {
        unsigned owner = static_cast<unsigned>(e.ownerVd);
        lat += p.noc ? 2 * p.noc->sliceToVd(slice_idx, owner)
                     : p.remoteSnoopLatency;
        if (exclusive) {
            InvResult r = invalidateVd(owner, addr, now);
            e.removeSharer(owner);
            e.ownerVd = -1;
            if (r.c2cDirty) {
                c2c_dirty = true;
                rv = r.oid;
                rseq = r.seq;
                have_rv = true;
            }
        } else {
            rv = downgradeVd(owner, addr, now);
            rseq = backing.lineSeq(addr);
            have_rv = true;
            e.ownerVd = -1;   // owner stays a sharer
        }
    }

    // Exclusive requests invalidate every other sharer VD.
    if (exclusive) {
        bool snooped = false;
        Cycle worst_snoop = 0;
        for (unsigned v = 0; v < numVds_; ++v) {
            if (v == vd || !e.isSharer(v))
                continue;
            invalidateVd(v, addr, now);
            e.removeSharer(v);
            snooped = true;
            if (p.noc)
                worst_snoop =
                    std::max(worst_snoop,
                             2 * p.noc->sliceToVd(slice_idx, v));
        }
        if (snooped)
            lat += p.noc ? worst_snoop : p.remoteSnoopLatency;
    }

    // Data source: c2c transfer, LLC, or DRAM.
    if (!c2c_dirty) {
        CacheLine *llc_line = sl.array().lookup(addr);
        if (llc_line) {
            ++stats.llcHits;
            if (!have_rv) {
                rv = llc_line->oid;
                rseq = llc_line->seq;
            }
        } else {
            ++stats.llcMisses;
            lat += dram.read(addr, lineBytes, now + lat);
            if (!have_rv) {
                rv = backing.lineOid(addr);
                rseq = backing.lineSeq(addr);
            }
        }
    }

    // The most recent epoch that updated the line is preserved
    // end-to-end (LLC tags, DRAM ECC bits — Sec. IV-A4); clean copies
    // inside other VDs may carry a newer OID than the LLC's stale
    // entry, so the *observed* RV resolves against the memory tag.
    // With super-block OID tracking that tag may be inflated by a
    // neighbouring line, which is safe for the Lamport observation
    // but must never re-label a transferred dirty version — the fill
    // keeps the data source's own tag.
    EpochWide observed_rv = rv;
    if (vctrl)
        observed_rv = std::max(rv, backing.lineOid(addr));

    // Lamport-clock epoch synchronization on the response (Sec. IV-B2).
    lat += observeRv(vd, observed_rv, now + lat);

    // Install in our L2. This is the last use of `e`: fillL2 may evict
    // a victim whose directory entry (possibly in this slice) is then
    // erased, which can move `e`.
    e.addSharer(vd);
    CohState st;
    if (exclusive) {
        st = CohState::E;
        e.ownerVd = static_cast<int>(vd);
    } else if (e.sharerVds == (1u << vd)) {
        st = CohState::E;   // sole sharer: grant exclusive
        e.ownerVd = static_cast<int>(vd);
    } else {
        st = CohState::S;
    }

    if (mine) {
        // Upgrade in place (line was S here).
        mine->state = st;
        return mine;
    }
    return fillL2(vd, addr, c2c_dirty ? CohState::M : st, rv, rseq,
                  c2c_dirty, now);
}

Cycle
Hierarchy::load(unsigned core, Addr addr, Cycle now)
{
    addr = lineAlign(addr);
    unsigned vd = vdOfCore(core);
    opStall = 0;
    Cycle lat = l1s[core]->latency();

    CacheLine *l1_line = l1s[core]->array().lookup(addr);
    if (l1_line) {
        ++stats.l1Hits;
        return lat;
    }
    ++stats.l1Misses;

    L2Cache &l2c = *l2s[vd];
    lat += l2c.latency();
    CacheLine *l2_line = l2c.array().lookup(addr);
    if (!l2_line) {
        ++stats.l2Misses;
        l2_line = fetchIntoL2(vd, addr, nullptr, false, now, lat);
    } else {
        ++stats.l2Hits;
    }

    // A sibling L1 holding the line in M must downgrade first
    // (intra-VD downgrade, Fig. 8).
    for (unsigned i = 0; i < p.coresPerVd; ++i) {
        if (!L2Cache::hasSharer(*l2_line, i))
            continue;
        unsigned sib = vd * p.coresPerVd + i;
        if (sib == core)
            continue;
        CacheLine *sl1 = l1s[sib]->array().probe(addr);
        nvo_assert(sl1 != nullptr);
        if (sl1->state == CohState::M && sl1->dirty)
            pullL1Version(vd, sib, sl1, CohState::S,
                          EvictReason::Capacity, now);
    }

    // Grant: exclusive when this VD owns the line and no other local
    // L1 shares it; shared otherwise.
    CohState grant =
        (writable(l2_line->state) && l2_line->sharers == 0)
            ? CohState::E
            : CohState::S;
    // fillL1 may displace a victim whose PUTX lands in this L2, but
    // only in the victim's existing line: it never allocates here, so
    // l2_line stays put.
    fillL1(core, addr, grant, l2_line->oid, l2_line->seq, false, now);
    L2Cache::addSharer(*l2_line, l2c.localIdx(core));
    return lat + opStall;
}

Cycle
Hierarchy::store(unsigned core, Addr addr, const void *data,
                 unsigned size, Cycle now)
{
    Addr line_addr = lineAlign(addr);
    unsigned vd = vdOfCore(core);
    L2Cache &l2c = *l2s[vd];
    opStall = 0;
    Cycle lat = l1s[core]->latency();

    CacheLine *l1_line = l1s[core]->array().lookup(line_addr);
    CacheLine *l2_line = nullptr;
    bool l1_writable = l1_line && writable(l1_line->state);
    if (l1_writable) {
        ++stats.l1Hits;
        l2_line = l2c.array().probe(line_addr);
        nvo_assert(l2_line != nullptr, "inclusion: L1 hit with no L2 line");
    } else {
        ++stats.l1Misses;
        lat += l2c.latency();
        l2_line = l2c.array().lookup(line_addr);
        bool local = l2_line && writable(l2_line->state);
        if (local) {
            ++stats.l2Hits;
        } else {
            if (l2_line)
                ++stats.l2Hits;   // present but needs an upgrade
            else
                ++stats.l2Misses;
            l2_line = fetchIntoL2(vd, line_addr, l2_line, true, now, lat);
        }

        // Invalidate sibling L1 copies (intra-VD GETX, Fig. 7).
        for (unsigned i = 0; i < p.coresPerVd; ++i) {
            if (!L2Cache::hasSharer(*l2_line, i))
                continue;
            unsigned sib = vd * p.coresPerVd + i;
            if (sib == core)
                continue;
            CacheLine *sl1 = l1s[sib]->array().probe(line_addr);
            nvo_assert(sl1 != nullptr);
            if (sl1->state == CohState::M && sl1->dirty) {
                pullL1Version(vd, sib, sl1, CohState::I,
                              EvictReason::Capacity, now);
            } else {
                L2Cache::removeSharer(*l2_line, i);
                sl1->reset();
            }
        }

        if (l1_line) {
            // Upgrade the local S copy in place.
            l1_line->state = CohState::E;
        } else {
            // Fill the L1; a dirty c2c-transferred version moves up
            // into the L1 (it is the store's target). As in load(),
            // fillL1's victim never moves l2_line.
            bool move_dirty = l2_line->dirty && !l2_line->sealed();
            l1_line = fillL1(core, line_addr,
                             move_dirty ? CohState::M : CohState::E,
                             l2_line->oid, l2_line->seq, move_dirty,
                             now);
            if (move_dirty)
                l2_line->dirty = false;
        }
        L2Cache::addSharer(*l2_line, l2c.localIdx(core));
    }

    // --- Version access protocol at the L1 (paper Sec. IV-A1) ---
    EpochWide cur = curEpoch(vd);
    if (vctrl) {
        nvo_assert(l1_line->oid <= cur,
                   "line from the future after Lamport sync");
        if (l1_line->dirty && l1_line->oid != cur) {
            // Store-eviction (Fig. 4): seal the immutable version and
            // push it to the L2 without invalidating the L1 line.
            NVO_TRACE(Cache, StoreEvict, obs::trackVd(vd), now,
                      line_addr, l1_line->oid);
            NVO_LEDGER(seal(vd, line_addr, l1_line->oid, now));
            auto sealed = std::make_unique<LineData>();
            readCurrent(line_addr, *sealed);
            l2AcceptVersion(vd, line_addr, l1_line->oid,
                            l1_line->seq, std::move(sealed),
                            EvictReason::StoreEvict, true, now);
        } else if (!l1_line->dirty) {
            // A clean L1 store may leave an older live dirty version
            // in the L2 below; seal its content in place before the
            // line changes (models the L2 holding its own data copy).
            if (l2_line->dirty && !l2_line->sealed() &&
                l2_line->oid < cur) {
                NVO_TRACE(Cache, VersionSeal, obs::trackVd(vd), now,
                          line_addr, l2_line->oid);
                NVO_LEDGER(seal(vd, line_addr, l2_line->oid, now));
                auto sealed = std::make_unique<LineData>();
                readCurrent(line_addr, *sealed);
                l2_line->sealedData = std::move(sealed);
            }
        }
    }

    // --- Commit ---
    SeqNo seq = ++seqCounter;
    if (data) {
        backing.commitStore(addr, data, size, cur, seq);
    } else {
        // Synthetic content: stamp the seqno so content always
        // changes and verification digests are meaningful.
        std::uint64_t stamp = seq;
        Addr at = std::min(addr & ~static_cast<Addr>(7),
                           line_addr + lineBytes - 8);
        backing.commitStore(at, &stamp, 8, cur, seq);
    }
    l1_line->state = CohState::M;
    l1_line->dirty = true;
    l1_line->oid = cur;
    l1_line->seq = seq;

    // The L2 copy keeps ownership (the VD holds dirty data above).
    l2c.setModified(*l2_line);

    if (wtracker) {
        LineData cur_data;
        backing.readLine(line_addr, cur_data);
        wtracker->record(line_addr, seq, cur, cur_data.digest());
    }
    return lat + opStall;
}

Hierarchy::WalkScan
Hierarchy::tagWalkScan(unsigned vd)
{
    WalkScan scan;
    EpochWide cur = curEpoch(vd);
    scan.minVer = cur;
    L2Cache &l2c = *l2s[vd];
    // The modelled walker reads every valid tag; the host visits only
    // lines in M, the others being inert (see the declaration).
    scan.linesScanned = l2c.numValid();

    l2c.forEachModified([&](CacheLine &line) {
        Addr addr = line.addr;
        bool any_dirty_left = false;

        // Check L1 copies first: they hold the newest versions.
        for (unsigned i = 0; i < p.coresPerVd; ++i) {
            if (!L2Cache::hasSharer(line, i))
                continue;
            unsigned core = vd * p.coresPerVd + i;
            CacheLine *l1_line = l1s[core]->array().probe(addr);
            nvo_assert(l1_line != nullptr);
            if (l1_line->state == CohState::M && l1_line->dirty) {
                if (l1_line->oid < cur) {
                    scan.minVer = std::min(scan.minVer, l1_line->oid);
                    WalkVersion v;
                    v.addr = addr;
                    v.oid = l1_line->oid;
                    v.seq = backing.lineSeq(addr);
                    readCurrent(addr, v.content);
                    scan.versions.push_back(std::move(v));
                    l1_line->dirty = false;
                    l1_line->state = CohState::E;
                } else {
                    any_dirty_left = true;
                }
            }
        }

        if (line.dirty) {
            if (line.oid < cur) {
                scan.minVer = std::min(scan.minVer, line.oid);
                WalkVersion v;
                v.addr = addr;
                v.oid = line.oid;
                v.seq = line.sealed() ? line.seq
                                      : backing.lineSeq(addr);
                if (line.sealed())
                    v.content = *line.sealedData;
                else
                    readCurrent(addr, v.content);
                scan.versions.push_back(std::move(v));
                line.dirty = false;
                line.sealedData.reset();
            } else {
                any_dirty_left = true;
            }
        }

        // The (now clean) L2 slot keeps naming the newest epoch that
        // wrote this line, so later write backs carry the right OID
        // outward. Applied only after the slot's own dirty version
        // (if any) was collected under its own tag.
        if (!line.dirty) {
            for (unsigned i = 0; i < p.coresPerVd; ++i) {
                if (!L2Cache::hasSharer(line, i))
                    continue;
                unsigned core = vd * p.coresPerVd + i;
                CacheLine *l1_line = l1s[core]->array().probe(addr);
                if (l1_line && l1_line->oid > line.oid) {
                    line.oid = l1_line->oid;
                    line.seq = l1_line->seq;
                }
            }
        }

        if (!any_dirty_left && line.state == CohState::M)
            line.state = CohState::E;
    });

    stats.tagWalkLinesScanned += scan.linesScanned;
    return scan;
}

void
Hierarchy::flushAll(Cycle now)
{
    // Shutdown flush: back-pressure here is not an op's to pay.
    struct StallGuard
    {
        Cycle &ref;
        ~StallGuard() { ref = 0; }
    } guard{opStall};
    for (unsigned vd = 0; vd < numVds_; ++vd) {
        L2Cache &l2c = *l2s[vd];
        l2c.array().forEachValid([&](CacheLine &line) {
            Addr addr = line.addr;
            bool l1_written = false;
            for (unsigned i = 0; i < p.coresPerVd; ++i) {
                if (!L2Cache::hasSharer(line, i))
                    continue;
                unsigned core = vd * p.coresPerVd + i;
                CacheLine *l1_line = l1s[core]->array().probe(addr);
                if (!l1_line)
                    continue;
                if (l1_line->state == CohState::M && l1_line->dirty) {
                    if (vctrl && line.dirty && line.oid < l1_line->oid) {
                        emitVersion(vd, addr, line.oid, line.seq,
                                    line.sealedData.get(),
                                    EvictReason::EpochFlush, now);
                        line.dirty = false;
                        line.sealedData.reset();
                    }
                    llcInsert(addr, l1_line->oid, l1_line->seq, true,
                              now);
                    emitVersion(vd, addr, l1_line->oid, l1_line->seq,
                                nullptr, EvictReason::EpochFlush, now);
                    l1_line->dirty = false;
                    l1_line->state = CohState::E;
                    l1_written = true;
                }
            }
            if (line.dirty) {
                if (!l1_written)
                    llcInsert(addr, line.oid, line.seq, true, now);
                emitVersion(vd, addr, line.oid, line.seq,
                            line.sealed() ? line.sealedData.get()
                                          : nullptr,
                            EvictReason::EpochFlush, now);
                line.dirty = false;
                line.sealedData.reset();
            }
        });
    }
    // LLC dirty lines flush to DRAM (timing only).
    for (auto &sl : slices) {
        sl->array().forEachValid([&](CacheLine &line) {
            if (line.dirty) {
                dram.write(line.addr, lineBytes, now);
                line.dirty = false;
            }
        });
    }
}

const CacheLine *
Hierarchy::l1Line(unsigned core, Addr addr) const
{
    return l1s[core]->array().probe(lineAlign(addr));
}

const CacheLine *
Hierarchy::l2Line(unsigned vd, Addr addr) const
{
    return l2s[vd]->array().probe(lineAlign(addr));
}

const DirEntry *
Hierarchy::dirEntry(Addr addr) const
{
    Addr line_addr = lineAlign(addr);
    return slices[sliceOf(line_addr)]->dirProbe(line_addr);
}

std::string
Hierarchy::checkInvariants(bool quiescent) const
{
    std::ostringstream err;
    auto fail = [&err](const std::string &msg) {
        if (err.tellp() == 0)
            err << msg;
    };

    // 1. Inclusion and sharer-bit consistency.
    for (unsigned core = 0; core < p.numCores; ++core) {
        unsigned vd = core / p.coresPerVd;
        l1s[core]->array().forEachValid([&](const CacheLine &line) {
            const CacheLine *l2_line =
                l2s[vd]->array().probe(line.addr);
            if (!l2_line) {
                fail("L1 line without inclusive L2 line");
                return;
            }
            if (!L2Cache::hasSharer(*l2_line,
                                    l2s[vd]->localIdx(core)))
                fail("L1 line without L2 sharer bit");
            if (line.sealed())
                fail("sealed payload in an L1");
            // A store hit on a writable L1 line commits without
            // consulting sibling copies, so a stale clean S copy
            // can lag the L2 tag until it is invalidated or
            // evicted; the relation only holds at quiescent
            // points.
            if (quiescent && line.oid < l2_line->oid)
                fail("L1 version older than L2 version");
        });
    }

    // 2. Sharer bits point at real L1 lines; single M copy per VD.
    for (unsigned vd = 0; vd < numVds_; ++vd) {
        l2s[vd]->array().forEachValid([&](const CacheLine &line) {
            unsigned m_copies = 0;
            for (unsigned i = 0; i < p.coresPerVd; ++i) {
                if (!L2Cache::hasSharer(line, i))
                    continue;
                unsigned core = vd * p.coresPerVd + i;
                const CacheLine *l1_line =
                    l1s[core]->array().probe(line.addr);
                if (!l1_line) {
                    fail("L2 sharer bit without L1 line");
                    continue;
                }
                if (l1_line->state == CohState::M)
                    ++m_copies;
            }
            if (m_copies > 1)
                fail("two M copies in one VD");
            if (line.sealed() && !line.dirty)
                fail("sealed but clean L2 line");
            // Directory must list this VD as a sharer.
            const DirEntry *e =
                slices[sliceOf(line.addr)]->dirProbe(line.addr);
            if (!e || !e->isSharer(vd))
                fail("L2 line not listed in the directory");
            if (writable(line.state) && e &&
                e->ownerVd != static_cast<int>(vd))
                fail("E/M line without directory ownership");
        });
    }

    // 3. The directory lists only L2-resident lines: every entry has a
    // sharer, every sharer VD's L2 holds the line, and an owner holds
    // it in E or M. With (2) the entries are exactly the lines some L2
    // holds, so they never outnumber the L2 slots.
    for (const auto &sl : slices) {
        sl->forEachDir([&](Addr addr, const DirEntry &e) {
            if (e.sharerVds == 0)
                fail("directory entry without a sharer");
            for (unsigned vd = 0; vd < numVds_; ++vd)
                if (e.isSharer(vd) && !l2s[vd]->array().probe(addr))
                    fail("directory sharer VD without the L2 line");
            if (e.ownerVd >= 0) {
                const CacheLine *l2_line =
                    l2s[static_cast<unsigned>(e.ownerVd)]->array().probe(
                        addr);
                if (!l2_line || !writable(l2_line->state))
                    fail("directory owner without the line in E or M");
            }
        });
    }

    return err.str();
}

void
Hierarchy::audit() const
{
    if (!audit::enabled)
        return;

    // Per-level structural sweeps.
    for (const auto &l1 : l1s)
        l1->audit();
    for (const auto &l2 : l2s)
        l2->audit();
    for (const auto &sl : slices)
        sl->audit();

    // Cross-level MESI structure (inclusion, sharer bits, directory).
    std::string err = checkInvariants(false);
    NVO_AUDIT(err.empty(), err);

    // Version-protocol epoch rules (Sec. IV-A/IV-B).
    EpochWide max_epoch = 0;
    for (unsigned vd = 0; vd < numVds_; ++vd) {
        EpochWide cur = curEpoch(vd);
        max_epoch = std::max(max_epoch, cur);

        for (unsigned i = 0; i < p.coresPerVd; ++i) {
            l1s[vd * p.coresPerVd + i]->array().forEachValid(
                [cur](const CacheLine &line) {
                    NVO_AUDIT(!line.dirty || line.oid <= cur,
                              "dirty L1 OID ahead of its VD's epoch");
                });
        }

        l2s[vd]->array().forEachValid([&](const CacheLine &line) {
            NVO_AUDIT(!line.dirty || line.oid <= cur,
                      "dirty L2 OID ahead of its VD's epoch");
            if (line.state != CohState::M) {
                // Inert for the tag walk, which skips it: no version
                // to collect here or in an L1 copy, and no newer L1
                // OID for the slot to adopt.
                NVO_AUDIT(!line.dirty && !line.sealed(),
                          "dirty or sealed L2 line outside M");
                for (unsigned i = 0; i < p.coresPerVd; ++i) {
                    if (!L2Cache::hasSharer(line, i))
                        continue;
                    const CacheLine *l1_line =
                        l1s[vd * p.coresPerVd + i]->array().probe(
                            line.addr);
                    NVO_AUDIT(!l1_line || !(l1_line->state ==
                                                CohState::M &&
                                            l1_line->dirty),
                              "dirty L1 copy in M under an L2 line "
                              "outside M");
                    NVO_AUDIT(!l1_line || l1_line->oid <= line.oid,
                              "L1 copy newer than its L2 line outside M");
                }
            }
            if (!line.sealed())
                return;
            // A sealed payload exists only because a newer version
            // was created above it, so its epoch is strictly past.
            NVO_AUDIT(line.oid < cur,
                      "sealed version from the current epoch");
            if (wtracker) {
                // Immutability: the payload must still be the
                // architectural content of its epoch — the content
                // after the last store with epoch <= oid (DESIGN.md
                // Sec. 2 premise: per-line epochs are non-decreasing).
                auto expect =
                    wtracker->expectedDigest(line.addr, line.oid);
                NVO_AUDIT(expect.has_value(),
                          "sealed version with no recorded store");
                NVO_AUDIT(!expect ||
                              *expect == line.sealedData->digest(),
                          "sealed version content mutated");
            }
        });
    }

    // LLC OIDs only move forward (Sec. IV-A4) and never past the
    // leading VD epoch.
    for (const auto &sl : slices) {
        sl->array().forEachValid([max_epoch](const CacheLine &line) {
            NVO_AUDIT(line.oid <= max_epoch,
                      "LLC OID ahead of every VD epoch");
        });
    }
}

} // namespace nvo
