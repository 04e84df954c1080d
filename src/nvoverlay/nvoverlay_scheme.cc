#include "nvoverlay/nvoverlay_scheme.hh"

#include <algorithm>

#include "cache/hierarchy.hh"
#include "common/audit.hh"
#include "common/log.hh"
#include "obs/trace.hh"

namespace nvo
{

NVOverlayScheme::NVOverlayScheme(const Config &cfg, NvmModel &nvm_model,
                                 RunStats &run_stats)
    : nvm(nvm_model), stats(run_stats)
{
    storesPerEpochVd = cfg.getU64("nvo.stores_per_epoch_vd", 65536);
    advanceStallCycles = cfg.getU64("nvo.advance_stall", 100);
    contextBytesPerCore = static_cast<std::uint32_t>(
        cfg.getU64("nvo.context_bytes_per_core", 512));
    walkerEnabled = cfg.getBool("nvo.walker_enabled", true);
    walkerLinesPerTick = static_cast<unsigned>(
        cfg.getU64("nvo.walker_lines_per_tick", 64));

    mnmParams.numOmcs =
        static_cast<unsigned>(cfg.getU64("mnm.num_omcs", 4));
    mnmParams.poolBytesPerOmc =
        cfg.getU64("mnm.pool_mb_per_omc", 64) * 1024 * 1024;
    mnmParams.table.initLines = static_cast<unsigned>(
        cfg.getU64("mnm.subpage_init_lines", 4));
    mnmParams.table.growthFactor = static_cast<unsigned>(
        cfg.getU64("mnm.subpage_growth", 4));
    mnmParams.useBuffer = cfg.getBool("mnm.use_buffer", false);
    mnmParams.buffer.sizeBytes =
        cfg.getU64("mnm.buffer_mb", 32) * 1024 * 1024;
    mnmParams.buffer.ways =
        static_cast<unsigned>(cfg.getU64("mnm.buffer_ways", 16));
    mnmParams.compactionThreshold =
        cfg.getF64("mnm.compaction_threshold", 1.0);
    mnmParams.dropMergedTables =
        cfg.getBool("mnm.drop_merged_tables", false);
    mnmParams.autoReclaim = cfg.getBool("mnm.auto_reclaim", false);
    mnmParams.maxDeviceRetries = static_cast<unsigned>(
        cfg.getU64("mnm.max_device_retries", 8));
    mnmParams.testSkipRecBarrier =
        cfg.getBool("mnm.test_skip_rec_barrier", false);
    mnmParams.testDropMerge =
        cfg.getBool("mnm.test_drop_merge", false);

    replEnabled = cfg.getBool("repl.enabled", false);
    if (replEnabled)
        replParams = repl::Replicator::paramsFrom(cfg);

    // has()-gated: an untenanted config registers no tenant.*
    // defaults, keeping the resolved-config dump (and so every
    // stats/bench JSON) byte-identical to the pre-tenant code.
    if (cfg.has("tenant.enabled")) {
        tenantEnabled = cfg.getBool("tenant.enabled", false);
        if (tenantEnabled)
            tenantParams = tenant::TenantManager::paramsFrom(cfg);
    }
}

NVOverlayScheme::~NVOverlayScheme() = default;

void
NVOverlayScheme::attach(Hierarchy &hierarchy)
{
    Scheme::attach(hierarchy);
    unsigned num_vds = hierarchy.numVds();
    coresPerVd = hierarchy.numCores() / num_vds;

    mnmParams.numVds = num_vds;
    backend_ = std::make_unique<MnmBackend>(mnmParams, nvm, stats);
    sense = std::make_unique<EpochSenseTracker>(num_vds);

    if (tenantEnabled) {
        tm_ = std::make_unique<tenant::TenantManager>(tenantParams,
                                                      stats);
        tm_->setOccupancyFn([this](tenant::Asid asid) {
            return backend_->poolLinesOf(asid);
        });
        backend_->setTenantManager(tm_.get());
    }

    if (replEnabled) {
        // Reserved words below the pool: rec-epoch lives at
        // poolBase - lineBytes, so the replication cursor and late
        // log take the next two lines down.
        replParams.cursorAddr = mnmParams.poolBase - 4 * lineBytes;
        repl_ = std::make_unique<repl::Replicator>(
            replParams, *backend_, nvm, stats);
    }

    vds.clear();
    walkers.clear();
    for (unsigned v = 0; v < num_vds; ++v) {
        vds.emplace_back(v, /*initial_epoch=*/1);
        TagWalker::Params wp;
        wp.vd = v;
        wp.linesPerTick = walkerLinesPerTick;
        wp.enabled = walkerEnabled;
        walkers.push_back(std::make_unique<TagWalker>(
            wp, hierarchy, *backend_, stats));
    }
    hierarchy.setVersionCtrl(this);
}

EpochWide
NVOverlayScheme::vdEpoch(unsigned vd) const
{
    return vds[vd].epoch();
}

Cycle
NVOverlayScheme::advanceVd(unsigned vd, EpochWide target, bool lamport,
                           Cycle now)
{
    // Cores in the VD stall while the pipeline drains and the
    // non-speculative context is dumped to NVM (Sec. IV-B2).
    Cycle stall = advanceStallCycles;
    nvm.write(mnmParams.poolBase - 2 * pageBytes +
                  static_cast<Addr>(vd) * lineBytes,
              contextBytesPerCore * coresPerVd, now,
              NvmWriteKind::Context);
    stats.contextDumps += coresPerVd;
    NVO_TRACE(Epoch, ContextDump, obs::trackVd(vd), now,
              static_cast<std::uint64_t>(contextBytesPerCore) *
                  coresPerVd,
              0);

    NVO_TRACE(Epoch, EpochAdvance, obs::trackVd(vd), now, target,
              lamport ? 1 : 0);
    vds[vd].advance(target);
    sense->onAdvance(vd, target);
    ++stats.epochAdvances;
    if (lamport)
        ++stats.lamportAdvances;
    walkers[vd]->requestWalk();
    return stall;
}

Cycle
NVOverlayScheme::observeRemoteVersion(unsigned vd, EpochWide rv,
                                      Cycle now)
{
    if (rv <= vds[vd].epoch())
        return 0;
    return advanceVd(vd, rv, true, now);
}

Cycle
NVOverlayScheme::acceptVersion(unsigned vd, Addr line_addr,
                               EpochWide oid, SeqNo seq,
                               const LineData &content, EvictReason why,
                               Cycle now)
{
    (void)vd;
    return backend_->insertVersion(line_addr, oid, seq, content, now,
                                   why);
}

Cycle
NVOverlayScheme::onStore(unsigned core, unsigned vd, Addr line_addr,
                         Cycle now)
{
    (void)core;
    vds[vd].noteStore();
    // QoS back-pressure lands here, on the offending tenant's own
    // store stream: the storing core absorbs the stall that pays its
    // tenant's accumulated token debt, so co-tenants on other
    // addresses never feel it.
    Cycle tstall = 0;
    if (tm_) {
        const tenant::Asid asid = tenant::asidOf(line_addr);
        tm_->noteStore(asid);
        tstall = tm_->throttleStall(asid, now);
        now += tstall;
    }
    if (vds[vd].storesInEpoch() >= storesPerEpochVd) {
        // Backpressure: past high water the epoch must not advance —
        // each advance eventually certifies another epoch's worth of
        // deltas into an already-saturated send queue. Stall the core
        // instead; the epoch advances once the link drains.
        if (repl_ && repl_->congested(now))
            return tstall + repl_->stallCycles();
        return tstall + advanceVd(vd, vds[vd].epoch() + 1, false, now);
    }
    return tstall;
}

void
NVOverlayScheme::tick(Cycle now)
{
    if (repl_)
        repl_->tick(now);

    // Skew limiting (Sec. IV-D): the two-group wrap-around scheme
    // requires inter-VD skew below half the 16-bit epoch space, so
    // laggard VDs are forced forward before the leader can lap them
    // (an "external event" epoch advance in the paper's terms).
    EpochWide hi = 0;
    for (const auto &vd : vds)
        hi = std::max(hi, vd.epoch());
    if (hi > epoch::halfSpace / 2) {
        EpochWide floor = hi - epoch::halfSpace / 2;
        for (unsigned v = 0; v < vds.size(); ++v) {
            if (vds[v].epoch() < floor) {
                NVO_TRACE(Epoch, SkewForce, obs::trackVd(v), now,
                          floor, hi);
                advanceVd(v, floor, false, now);
            }
        }
    }

    for (unsigned v = 0; v < walkers.size(); ++v) {
        // Opportunistic walking: let the epoch make progress first so
        // demand evictions persist most of the previous epoch's
        // versions; the walker sweeps the stragglers mid-epoch.
        bool allow = vds[v].storesInEpoch() * 2 >= storesPerEpochVd;
        walkers[v]->tick(now, allow);
    }
}

Cycle
NVOverlayScheme::advanceAll(Cycle now)
{
    EpochWide target = 0;
    for (const auto &vd : vds)
        target = std::max(target, vd.epoch());
    ++target;
    Cycle stall = 0;
    for (unsigned v = 0; v < vds.size(); ++v)
        stall = std::max(stall, advanceVd(v, target, false, now));
    return stall;
}

Cycle
NVOverlayScheme::finalize(Cycle now)
{
    nvo_assert(hier != nullptr, "finalize before attach");

    // 1. Stop buffering and flush what is buffered.
    backend_->drainBuffers(now);
    backend_->setBufferBypass(true);

    // 2. Flush every dirty version out of the hierarchy.
    hier->flushAll(now);

    // 3. Close the final epoch on all VDs (common target so the
    //    recoverable epoch covers every version written so far).
    advanceAll(now);

    // 4. Walk and drain every VD; min-ver reports advance rec-epoch
    //    past all closed epochs and merge their tables.
    for (auto &walker : walkers)
        walker->drainFully(now);

    // 5. Backend flush (pending metadata, rec-epoch persist).
    Cycle done = backend_->finalize(now);

    // 6. Let the replication stream drain: every certified epoch
    //    applied on the standby and acked back.
    if (repl_) {
        done = std::max(done, repl_->drain(done));
        repl_->exportStats();
    }

    // 7. Final per-tenant counter export (occupancy snapshots the
    //    post-drain pool state).
    if (tm_)
        tm_->exportStats();
    return done;
}

void
NVOverlayScheme::crashFlush(Cycle now)
{
    backend_->drainBuffers(now);
    backend_->updateStats();
}

EpochWide
NVOverlayScheme::globalEpoch() const
{
    EpochWide e = 0;
    for (const auto &vd : vds)
        e = std::max(e, vd.epoch());
    return e;
}

std::uint64_t
NVOverlayScheme::epochsCompleted() const
{
    return stats.epochAdvances;
}

void
NVOverlayScheme::updateStats()
{
    if (backend_)
        backend_->updateStats();
    if (repl_)
        repl_->exportStats();
    if (tm_)
        tm_->exportStats();
}

void
NVOverlayScheme::registerAudits(Auditor &auditor)
{
    auditor.add("nvo.epochs", [this] {
        // Two-group wrap-around scheme (Sec. IV-D): every pairwise
        // inter-VD skew must stay below half the 16-bit epoch space,
        // or narrow OID comparisons become ambiguous.
        EpochWide lo = vds.empty() ? 0 : vds[0].epoch();
        EpochWide hi = lo;
        for (const auto &vd : vds) {
            lo = std::min(lo, vd.epoch());
            hi = std::max(hi, vd.epoch());
        }
        NVO_AUDIT(hi - lo < epoch::halfSpace,
                  "inter-VD epoch skew reached half the OID space");
        NVO_AUDIT(sense->skewWithinBound(),
                  "sense tracker saw skew reach half the OID space");
        // A VD's certified min-ver can never run ahead of its own
        // epoch (min-ver is initialized from the epoch at scan time,
        // Sec. IV-C).
        for (const auto &vd : vds)
            NVO_AUDIT(backend_->minVerOf(vd.id()) <= vd.epoch(),
                      "min-ver ran ahead of its VD's epoch");
    }, Auditor::Tier::Light);
    auditor.add("nvo.walkers", [this] {
        for (unsigned v = 0; v < walkers.size(); ++v)
            walkers[v]->audit(vds[v].epoch());
    });
    auditor.add("nvo.backend", [this] { backend_->audit(); });
}

} // namespace nvo
