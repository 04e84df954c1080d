#include "obs/ledger.hh"

#include "common/config.hh"
#include "common/log.hh"
#include "obs/json.hh"

namespace nvo
{
namespace obs
{

const char *
toString(LedgerCause c)
{
    switch (c) {
      case LedgerCause::Capacity: return "capacity";
      case LedgerCause::Coherence: return "coherence";
      case LedgerCause::TagWalk: return "tag-walk";
      case LedgerCause::StoreEvict: return "store-evict";
      case LedgerCause::EpochFlush: return "epoch-flush";
      case LedgerCause::CompactionCopy: return "compaction-copy";
      case LedgerCause::SubpageReloc: return "subpage-reloc";
      default: return "?";
    }
}

const char *
toString(VerState s)
{
    switch (s) {
      case VerState::Sealed: return "sealed";
      case VerState::Inserted: return "inserted";
      case VerState::Merged: return "merged";
      case VerState::Compacted: return "compacted";
      case VerState::Dropped: return "dropped";
      default: return "?";
    }
}

void
Ledger::configure(const Config &cfg)
{
    reset();
    armed_ = ledgerCompiled && cfg.getBool("ledger.enabled", false);
    // has()-gated so untenanted runs register no tenant.* defaults
    // (the resolved-config dump must stay byte-identical).
    testUnaccounted_ =
        cfg.has("tenant.enabled") &&
        cfg.getBool("tenant.test_unaccounted", false);
}

void
Ledger::setArmed(bool on)
{
    armed_ = ledgerCompiled && on;
}

void
Ledger::reset()
{
    nextProv = 1;
    sealed_ = 0;
    inserted_ = 0;
    merged_ = 0;
    lateMerged_ = 0;
    compacted_ = 0;
    dropped_ = 0;
    overwrites_ = 0;
    liveInserted_ = 0;
    bytesByCause.fill(0);
    bytesByAsid_.clear();
    entries.clear();
}

Ledger::Entry &
Ledger::upsert(Addr line_addr, EpochWide oid, bool &created)
{
    auto [it, inserted_new] =
        entries.try_emplace({line_addr, oid}, Entry{});
    created = inserted_new;
    if (inserted_new)
        it->second.prov = nextProv++;
    return it->second;
}

void
Ledger::terminate(Entry &e, VerState to)
{
    if (e.state == VerState::Inserted)
        --liveInserted_;
    e.state = to;
}

void
Ledger::seal(unsigned vd, Addr line_addr, EpochWide oid, Cycle now)
{
    bool created = false;
    Entry &e = upsert(line_addr, oid, created);
    if (!created)
        return;   // re-seal after a cache-to-cache migration
    ++sealed_;
    NVO_TRACE(Ledger, LedgerSeal, trackVd(vd), now, e.prov,
              line_addr);
}

void
Ledger::insertVersion(unsigned omc, Addr line_addr, EpochWide oid,
                      LedgerCause cause, Cycle now)
{
    bool created = false;
    Entry &e = upsert(line_addr, oid, created);
    if (!created && e.state != VerState::Sealed) {
        // The per-epoch table overwrites the (line, epoch) slot in
        // place; the prior content was superseded, not leaked. For a
        // terminated entry (a late re-arrival after its epoch merged)
        // the state stays terminal — the late-merge or stale-drop
        // path re-terminates it right behind this insert.
        ++e.overwrites;
        ++overwrites_;
        return;
    }
    e.state = VerState::Inserted;
    e.cause = cause;
    ++inserted_;
    ++liveInserted_;
    NVO_TRACE(Ledger, LedgerInsert, trackOmc(omc), now, e.prov,
              static_cast<std::uint64_t>(cause));
}

void
Ledger::merged(unsigned omc, Addr line_addr, EpochWide oid, bool late,
               Cycle now)
{
    bool created = false;
    Entry &e = upsert(line_addr, oid, created);
    if (e.state == VerState::Merged)
        return;
    terminate(e, VerState::Merged);
    ++merged_;
    if (late)
        ++lateMerged_;
    NVO_TRACE(Ledger, LedgerMerge, trackOmc(omc), now, e.prov,
              late ? 1 : 0);
}

void
Ledger::compacted(unsigned omc, Addr line_addr, EpochWide oid,
                  EpochWide target, Cycle now)
{
    bool created = false;
    Entry &e = upsert(line_addr, oid, created);
    if (e.state == VerState::Compacted)
        return;
    terminate(e, VerState::Compacted);
    ++compacted_;
    NVO_TRACE(Ledger, LedgerCompactMove, trackOmc(omc), now, e.prov,
              target);
}

void
Ledger::dropped(unsigned omc, Addr line_addr, EpochWide oid, Cycle now)
{
    bool created = false;
    Entry &e = upsert(line_addr, oid, created);
    // A compacted version's old master entry is still unreferenced
    // afterwards; that drop is bookkeeping of the same move, not a
    // second lifecycle exit.
    if (e.state == VerState::Dropped || e.state == VerState::Compacted)
        return;
    terminate(e, VerState::Dropped);
    ++dropped_;
    NVO_TRACE(Ledger, LedgerDrop, trackOmc(omc), now, e.prov, oid);
}

void
Ledger::dataWrite(LedgerCause cause, std::uint64_t bytes,
                  tenant::Asid asid)
{
    bytesByCause[static_cast<std::size_t>(cause)] += bytes;
    // Seeded attribution-leak bug: reloc bytes vanish from the
    // per-tenant tallies, so they no longer sum to the total.
    if (testUnaccounted_ && cause == LedgerCause::SubpageReloc)
        return;
    bytesByAsid_[asid] += bytes;
}

std::uint64_t
Ledger::dataBytesTotal() const
{
    std::uint64_t total = 0;
    for (std::uint64_t b : bytesByCause)
        total += b;
    return total;
}

void
Ledger::forEachLeak(
    const std::function<void(Addr, EpochWide, const Entry &)> &fn)
    const
{
    for (const auto &kv : entries)
        if (kv.second.state == VerState::Inserted)
            fn(kv.first.first, kv.first.second, kv.second);
}

void
Ledger::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.kv("enabled", armed_);
    w.kv("provs_assigned", provsAssigned());
    w.kv("sealed", sealed_);
    w.kv("inserted", inserted_);
    w.kv("merged", merged_);
    w.kv("late_merged", lateMerged_);
    w.kv("compacted", compacted_);
    w.kv("dropped", dropped_);
    w.kv("overwrites", overwrites_);
    w.kv("leaked", liveInserted_);
    w.key("leaked_samples").beginArray();
    std::size_t listed = 0;
    forEachLeak([&](Addr a, EpochWide e, const Entry &entry) {
        if (listed >= 16)
            return;
        ++listed;
        w.beginObject();
        w.kv("addr", a);
        w.kv("epoch", e);
        w.kv("prov", entry.prov);
        w.kv("cause", toString(entry.cause));
        w.endObject();
    });
    w.endArray();
    w.key("data_bytes_by_cause").beginObject();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(LedgerCause::NumCauses); ++i)
        w.kv(toString(static_cast<LedgerCause>(i)), bytesByCause[i]);
    w.endObject();
    // Emitted only when tenant traffic exists: untenanted runs keep
    // the pre-tenant JSON byte-for-byte.
    bool tenanted = false;
    for (const auto &kv : bytesByAsid_)
        if (kv.first != 0)
            tenanted = true;
    if (tenanted) {
        w.key("data_bytes_by_asid").beginObject();
        for (const auto &kv : bytesByAsid_)
            w.kv(std::to_string(kv.first), kv.second);
        w.endObject();
    }
    w.kv("data_bytes_total", dataBytesTotal());
    w.endObject();
}

Ledger &
ledger()
{
    static Ledger global;
    return global;
}

} // namespace obs
} // namespace nvo
