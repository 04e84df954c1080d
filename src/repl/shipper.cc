#include "repl/shipper.hh"

#include "common/log.hh"
#include "fault/fault.hh"
#include "mem/persist_domain.hh"
#include "obs/trace.hh"

namespace nvo
{
namespace repl
{

DeltaShipper::DeltaShipper(MnmBackend &backend_ref, NvmModel &nvm_model,
                           AsyncLink &link_ref, RunStats &run_stats,
                           const Params &params)
    : backend(backend_ref), nvm(nvm_model), link(link_ref),
      stats(run_stats), p(params)
{
    nvo_assert(p.cursorAddr != 0, "shipper needs a cursor address");
}

void
DeltaShipper::sendFrame(FrameType type, EpochWide epoch,
                        std::uint64_t arg, const LineData *payload,
                        Cycle now)
{
    Frame f;
    f.type = type;
    f.generation = generation_;
    f.epoch = epoch;
    f.arg = arg;
    f.frameId = nextFrameId++;
    if (payload)
        f.payload = *payload;
    NVO_FAULT_POINT("repl.ship.frame");
    if (type == FrameType::LateDelta) {
        lateLog_.push_back({static_cast<Addr>(arg), epoch, f.frameId,
                           false});
        // The durable late log: one small append per amendment so a
        // crashed primary knows which amendments may still be
        // un-acked (the content itself survives in the pool image).
        nvm.persist().write(p.cursorAddr + lineBytes, 16, now,
                            NvmWriteKind::Mapping);
        NVO_TRACE(Repl, ReplShipLate, obs::trackRepl, now, arg,
                  epoch);
    } else {
        outstanding[epoch] += 1;
        frameEpoch[f.frameId] = epoch;
        if (type == FrameType::Delta)
            NVO_TRACE(Repl, ReplShipDelta, obs::trackRepl, now, arg,
                      epoch);
        else
            NVO_TRACE(Repl, ReplShipClose, obs::trackRepl, now, arg,
                      epoch);
    }
    std::vector<std::uint8_t> bytes = encode(f);
    if (payload)
        stats.repl.deltaBytes += lineBytes;
    link.send(f.frameId, std::move(bytes), now);
}

void
DeltaShipper::shipEpoch(EpochWide e, Cycle now)
{
    NVO_FAULT_POINT("repl.ship.epoch");
    if (p.testCursorBug && e > durableCursor_) {
        // Seeded bug: certify the epoch shipped before a single frame
        // is acked. A crash while its frames are in flight makes
        // resume skip them for good.
        nvm.persist().write(p.cursorAddr, 16, now,
                            NvmWriteKind::Mapping);
        nvm.persist().barrier();
        durableCursor_ = e;
        ++stats.repl.cursorPersists;
    }
    std::uint64_t count = 0;
    for (unsigned omc = 0; omc < backend.numOmcs(); ++omc) {
        EpochTable *table = backend.epochTable(omc, e);
        if (!table)
            continue;   // this partition saw no writes in epoch e
        table->forEachVersion([&](Addr line_addr, Addr,
                                  const EpochTable::PageEntry &) {
            LineData content;
            bool ok = table->readVersion(line_addr, content);
            nvo_assert(ok, "epoch-table version unreadable while "
                           "extracting its delta");
            sendFrame(FrameType::Delta, e, line_addr, &content, now);
            ++count;
        });
    }
    // Always close the epoch — an empty close keeps the replica's
    // in-order apply chain gapless.
    sendFrame(FrameType::EpochClose, e, count, nullptr, now);
    shippedUpTo_ = e;
    ++stats.repl.epochsShipped;
}

void
DeltaShipper::onEpochsRecoverable(EpochWide from, EpochWide upto,
                                  Cycle now)
{
    for (EpochWide e = from + 1; e <= upto; ++e)
        shipEpoch(e, now);
}

void
DeltaShipper::onLateVersion(Addr line_addr, EpochWide oid,
                            const LineData &content, Cycle now)
{
    sendFrame(FrameType::LateDelta, oid, line_addr, &content, now);
    ++stats.repl.lateShipped;
}

void
DeltaShipper::onFrameAcked(std::uint64_t frame_id, Cycle now)
{
    auto it = frameEpoch.find(frame_id);
    if (it != frameEpoch.end()) {
        EpochWide e = it->second;
        frameEpoch.erase(it);
        auto out = outstanding.find(e);
        nvo_assert(out != outstanding.end() && out->second > 0);
        if (--out->second == 0) {
            outstanding.erase(out);
            maybeAdvanceCursor(now);
        }
        return;
    }
    for (auto &rec : lateLog_)
        if (rec.frameId == frame_id)
            rec.acked = true;
}

void
DeltaShipper::maybeAdvanceCursor(Cycle now)
{
    EpochWide before = cursor_;
    while (cursor_ < shippedUpTo_ &&
           outstanding.find(cursor_ + 1) == outstanding.end())
        ++cursor_;
    if (cursor_ > before && cursor_ > durableCursor_ &&
        !p.testCursorBug)
        persistCursor(now);
}

void
DeltaShipper::persistCursor(Cycle now)
{
    NVO_FAULT_POINT("repl.cursor.persist");
    // One small record: {cursor epoch, generation}; the fence orders
    // it behind everything the cursor claims was delivered.
    nvm.persist().write(p.cursorAddr, 16, now, NvmWriteKind::Mapping);
    nvm.persist().barrier();
    durableCursor_ = cursor_;
    // The same record durably trims late amendments acked by now.
    std::size_t kept = 0;
    for (auto &rec : lateLog_)
        if (!rec.acked)
            lateLog_[kept++] = rec;
    lateLog_.resize(kept);
    ++stats.repl.cursorPersists;
    NVO_TRACE(Repl, ReplCursorPersist, obs::trackRepl, now, cursor_,
              generation_);
}

void
DeltaShipper::onCrash()
{
    link.reset();
    outstanding.clear();
    frameEpoch.clear();
    cursor_ = durableCursor_;
    shippedUpTo_ = durableCursor_;
}

std::uint64_t
DeltaShipper::resume(Cycle now)
{
    NVO_FAULT_POINT("repl.resume");
    ++generation_;
    ++stats.repl.resumes;
    EpochWide rec = backend.recEpoch();
    NVO_TRACE(Repl, ReplResume, obs::trackRepl, now, durableCursor_,
              rec);

    std::uint64_t reshipped = 0;
    for (EpochWide e = durableCursor_ + 1; e <= rec; ++e) {
        shipEpoch(e, now);
        ++reshipped;
    }

    // Un-trimmed late amendments may have been lost in flight;
    // re-ship each at the epoch it amended (idempotent on the
    // replica). The standby may have applied that epoch already —
    // it runs ahead of the durable cursor while its acks are in
    // flight — and then ignores the epoch's re-shipped deltas, so
    // the amendment is its only path. Every surviving entry counts
    // as un-acked again — the pre-crash acks died with the link.
    std::vector<LateRec> pending;
    pending.swap(lateLog_);
    for (const auto &rec_entry : pending) {
        LineData content;
        EpochWide found = 0;
        if (!backend.readSnapshot(rec_entry.line, rec_entry.epoch,
                                  content, &found))
            continue;   // line no longer recoverable at all
        sendFrame(FrameType::LateDelta, found, rec_entry.line,
                  &content, now);
        ++stats.repl.lateShipped;
    }
    stats.repl.reshippedEpochs += reshipped;
    return reshipped;
}

} // namespace repl
} // namespace nvo
