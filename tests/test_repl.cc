/**
 * @file
 * Replication subsystem: wire format round-trips and survives
 * truncation/corruption/garbage, the lossy async link eventually
 * delivers everything inside its retry budget, and the full
 * primary -> standby pipeline converges byte-exact — including
 * across a primary crash, where resume must re-ship only from the
 * durable cursor, and a seeded premature-cursor bug must be caught
 * by the convergence check.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "fault/crash_sim.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "repl/link.hh"
#include "repl/replica.hh"
#include "repl/replicator.hh"
#include "repl/wire.hh"

namespace nvo
{
namespace repl
{
namespace
{

Frame
deltaFrame(std::uint64_t id, EpochWide e, Addr line,
           std::uint8_t fill)
{
    Frame f;
    f.type = FrameType::Delta;
    f.generation = 1;
    f.epoch = e;
    f.arg = line;
    f.frameId = id;
    for (std::size_t i = 0; i < lineBytes; ++i)
        f.payload.bytes[i] =
            static_cast<std::uint8_t>(fill + i);
    return f;
}

// ---------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------

TEST(ReplWire, Crc32KnownVector)
{
    // The IEEE 802.3 check value for the ASCII digits "123456789".
    const char *s = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(s), 9),
              0xCBF43926u);
}

TEST(ReplWire, DeltaRoundTrip)
{
    Frame f = deltaFrame(7, 42, 0x1040, 0xA0);
    auto bytes = encode(f);
    ASSERT_EQ(bytes.size(), deltaFrameBytes);

    Decoder dec;
    dec.feed(bytes);
    auto got = dec.poll();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, FrameType::Delta);
    EXPECT_EQ(got->generation, 1u);
    EXPECT_EQ(got->epoch, 42u);
    EXPECT_EQ(got->arg, 0x1040u);
    EXPECT_EQ(got->frameId, 7u);
    EXPECT_EQ(std::memcmp(got->payload.bytes.data(),
                          f.payload.bytes.data(), lineBytes),
              0);
    EXPECT_FALSE(dec.poll().has_value());
    EXPECT_EQ(dec.framesDecoded(), 1u);
    EXPECT_EQ(dec.crcErrors(), 0u);
}

TEST(ReplWire, EpochCloseRoundTrip)
{
    Frame f;
    f.type = FrameType::EpochClose;
    f.generation = 3;
    f.epoch = 9;
    f.arg = 17;   // delta count
    f.frameId = 55;
    auto bytes = encode(f);
    ASSERT_EQ(bytes.size(), closeFrameBytes);

    Decoder dec;
    dec.feed(bytes);
    auto got = dec.poll();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, FrameType::EpochClose);
    EXPECT_EQ(got->arg, 17u);
    EXPECT_FALSE(got->hasPayload());
}

TEST(ReplWire, TruncationWaitsForMoreBytes)
{
    Frame f = deltaFrame(1, 5, 0x2000, 0x11);
    auto bytes = encode(f);
    Decoder dec;
    // Drip-feed: no prefix may yield a frame, the full buffer must.
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        dec.feed(bytes.data() + cut - 1, 1);
        EXPECT_FALSE(dec.poll().has_value()) << "cut=" << cut;
    }
    dec.feed(bytes.data() + bytes.size() - 1, 1);
    auto got = dec.poll();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frameId, 1u);
    EXPECT_EQ(dec.bytesDiscarded(), 0u);
}

TEST(ReplWire, CorruptPayloadResyncsToNextFrame)
{
    auto a = encode(deltaFrame(1, 5, 0x2000, 0x11));
    auto b = encode(deltaFrame(2, 5, 0x2040, 0x22));
    a[40] ^= 0xFF;   // payload corruption -> CRC failure
    Decoder dec;
    dec.feed(a);
    dec.feed(b);
    auto got = dec.poll();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frameId, 2u);
    EXPECT_FALSE(dec.poll().has_value());
    EXPECT_EQ(dec.framesDecoded(), 1u);
    EXPECT_GE(dec.crcErrors(), 1u);
    EXPECT_GE(dec.resyncs(), 1u);
    EXPECT_GT(dec.bytesDiscarded(), 0u);
}

TEST(ReplWire, UnknownVersionIsSkippedNotTrusted)
{
    auto a = encode(deltaFrame(1, 5, 0x2000, 0x11));
    a[2] = wireVersion + 1;   // future wire version
    auto b = encode(deltaFrame(2, 6, 0x2040, 0x22));
    Decoder dec;
    dec.feed(a);
    dec.feed(b);
    auto got = dec.poll();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frameId, 2u);
    EXPECT_GE(dec.badVersions(), 1u);
}

TEST(ReplWire, GarbagePrefixIsDiscarded)
{
    std::vector<std::uint8_t> garbage(300);
    Rng rng(11);
    for (auto &byte : garbage)
        byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
    garbage[0] = wireMagic0;   // tease a false sync at offset 0
    auto good = encode(deltaFrame(9, 3, 0x4080, 0x33));

    Decoder dec;
    dec.feed(garbage);
    dec.feed(good);
    std::uint64_t seen = 0;
    while (auto f = dec.poll())
        if (f->frameId == 9)
            ++seen;
    EXPECT_EQ(seen, 1u);
    EXPECT_GT(dec.bytesDiscarded(), 0u);
}

TEST(ReplWire, FuzzedStreamNeverDesynchronizesPermanently)
{
    Rng rng(1234);
    Decoder dec;
    std::uint64_t cleanSent = 0, cleanSeen = 0;
    for (unsigned round = 0; round < 400; ++round) {
        Frame f = deltaFrame(round + 1, round / 7 + 1,
                             0x1000 + 64 * round,
                             static_cast<std::uint8_t>(round));
        auto bytes = encode(f);
        unsigned roll = static_cast<unsigned>(rng.next() % 10);
        if (roll < 2) {
            // Corrupt 1-3 bytes anywhere in the frame.
            unsigned n = 1 + static_cast<unsigned>(rng.next() % 3);
            for (unsigned i = 0; i < n; ++i)
                bytes[rng.next() % bytes.size()] ^=
                    static_cast<std::uint8_t>(1 + rng.next() % 255);
        } else if (roll == 2) {
            // Truncate: the tail never arrives.
            bytes.resize(1 + rng.next() % (bytes.size() - 1));
        } else if (roll == 3) {
            // Inject pure garbage between frames.
            std::vector<std::uint8_t> junk(rng.next() % 200);
            for (auto &byte : junk)
                byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
            dec.feed(junk);
        } else {
            ++cleanSent;
        }
        dec.feed(bytes);
        while (auto got = dec.poll()) {
            // Whatever survives must be internally consistent.
            EXPECT_EQ(got->arg, 0x1000u + 64 * (got->frameId - 1));
            if (got->type == FrameType::Delta)
                ++cleanSeen;
        }
    }
    // Every untouched frame fed after the last disturbance must be
    // recoverable; corrupted neighbours may take clean ones down
    // with them only when truncation glued two frames together.
    EXPECT_GE(cleanSeen, cleanSent / 2);
    // And a pristine frame at the end always decodes.
    auto tail = encode(deltaFrame(10001, 99, 0x9000, 0x77));
    dec.feed(tail);
    bool sawTail = false;
    while (auto got = dec.poll())
        sawTail |= got->frameId == 10001;
    EXPECT_TRUE(sawTail);
}

TEST(ReplWire, LongFuzzSmokeNeverWedgesTheDecoder)
{
    // 200 k frames with random payloads, each fed untouched, with one
    // byte flipped, truncated, or behind up to 63 junk bytes, in
    // equal shares.
    constexpr std::uint64_t rounds = 200000;
    Rng rng(2021);
    Decoder dec;
    std::uint64_t intact = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        Frame f;
        f.type = (r % 5 == 0) ? FrameType::EpochClose
                              : FrameType::Delta;
        f.generation = static_cast<std::uint32_t>(r / 100 + 1);
        f.epoch = r / 10 + 1;
        f.arg = 0x1000 + 64 * r;
        f.frameId = r + 1;
        for (auto &byte : f.payload.bytes)
            byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
        auto bytes = encode(f);
        switch (rng.next() % 4) {
        case 0:
            bytes[rng.next() % bytes.size()] ^=
                static_cast<std::uint8_t>(1 + rng.next() % 255);
            break;
        case 1:
            bytes.resize(1 + rng.next() % bytes.size());
            break;
        case 2: {
            std::vector<std::uint8_t> junk(rng.next() % 64);
            for (auto &byte : junk)
                byte = static_cast<std::uint8_t>(rng.next() & 0xFF);
            bytes.insert(bytes.begin(), junk.begin(), junk.end());
            ++intact;
            break;
        }
        default:
            ++intact;
            break;
        }
        dec.feed(bytes);
        while (auto got = dec.poll())
            ASSERT_EQ(got->arg, 0x1000u + 64 * (got->frameId - 1));
    }
    EXPECT_GE(dec.framesDecoded(), intact / 2);
    EXPECT_GT(dec.resyncs(), 0u);
    // Whatever the fuzz left buffered cannot wedge the stream: a
    // pristine frame at the end always decodes.
    Frame probe;
    probe.type = FrameType::EpochClose;
    probe.epoch = 1;
    probe.frameId = ~0ull;
    dec.feed(encode(probe));
    bool alive = false;
    while (auto got = dec.poll())
        alive |= got->frameId == ~0ull;
    EXPECT_TRUE(alive);
}

// ---------------------------------------------------------------
// Async link
// ---------------------------------------------------------------

struct LinkHarness
{
    AsyncLink link;
    Decoder dec;
    std::set<std::uint64_t> delivered;

    explicit LinkHarness(const AsyncLink::Params &p) : link(p)
    {
        link.setDeliver([this](const std::vector<std::uint8_t> &b,
                               Cycle now) {
            dec.feed(b);
            while (auto f = dec.poll()) {
                delivered.insert(f->frameId);
                link.ack(f->frameId, now);
            }
        });
    }

    Cycle
    pump(Cycle now, Cycle quantum = 500)
    {
        while (!link.idle()) {
            now += quantum;
            link.tick(now);
        }
        return now;
    }
};

TEST(ReplLink, LosslessDeliversEverythingWithoutRetries)
{
    AsyncLink::Params p;
    p.seed = 5;
    LinkHarness h(p);
    Cycle now = 0;
    for (std::uint64_t id = 1; id <= 64; ++id)
        h.link.send(id, encode(deltaFrame(id, 1, 0x1000 + 64 * id,
                                          0x10)),
                    now);
    h.pump(now);
    EXPECT_EQ(h.delivered.size(), 64u);
    EXPECT_EQ(h.link.stats().acked, 64u);
    EXPECT_EQ(h.link.stats().retries, 0u);
    EXPECT_EQ(h.link.stats().drops, 0u);
}

TEST(ReplLink, LossyLinkEventuallyDeliversEverything)
{
    AsyncLink::Params p;
    p.dropRate = 0.25;
    p.corruptRate = 0.10;
    p.retryTimeout = 12000;
    p.seed = 7;
    LinkHarness h(p);
    Cycle now = 0;
    for (std::uint64_t id = 1; id <= 200; ++id) {
        h.link.send(id, encode(deltaFrame(id, 1 + id / 50,
                                          0x1000 + 64 * id, 0x20)),
                    now);
        now += 100;
        h.link.tick(now);
    }
    h.pump(now);
    EXPECT_EQ(h.delivered.size(), 200u);
    EXPECT_GT(h.link.stats().drops, 0u);
    EXPECT_GT(h.link.stats().corrupts, 0u);
    EXPECT_GT(h.link.stats().retries, 0u);
    EXPECT_GE(h.dec.crcErrors() + h.dec.resyncs(), 1u);
}

TEST(ReplLink, HighWaterRaisesCongestionUntilDrained)
{
    AsyncLink::Params p;
    p.window = 4;
    p.highWater = 16;
    p.bytesPerCycle = 4;
    p.seed = 3;
    LinkHarness h(p);
    Cycle now = 0;
    for (std::uint64_t id = 1; id <= 64; ++id)
        h.link.send(id, encode(deltaFrame(id, 1, 0x1000 + 64 * id,
                                          0x30)),
                    now);
    EXPECT_TRUE(h.link.congested());
    EXPECT_GE(h.link.stats().queuePeak, 16u);
    h.pump(now);
    EXPECT_FALSE(h.link.congested());
    EXPECT_EQ(h.delivered.size(), 64u);
}

// ---------------------------------------------------------------
// Standby applier
// ---------------------------------------------------------------

Frame
closeFrame(std::uint64_t id, std::uint32_t generation, EpochWide e,
           std::uint64_t deltas)
{
    Frame f;
    f.type = FrameType::EpochClose;
    f.generation = generation;
    f.epoch = e;
    f.arg = deltas;
    f.frameId = id;
    return f;
}

TEST(ReplicaApplier, ReshipOfAnAppliedEpochLeavesNothingPending)
{
    setQuiet(true);
    ReplicaApplier standby(ReplicaApplier::Params{});
    const Addr line = 0x1000;
    Frame delta = deltaFrame(1, 1, line, 0x10);
    delta.generation = 0;
    standby.onFrame(delta, 0);
    standby.onFrame(closeFrame(2, 0, 1, 1), 0);
    ASSERT_EQ(standby.appliedRecEpoch(), 1u);
    ASSERT_EQ(standby.pendingEpochs(), 0u);

    // The primary resumed from a durable cursor behind the standby:
    // generation 1 re-ships epoch 1 whole, under new frame ids.
    standby.onFrame(deltaFrame(3, 1, line, 0x10), 100);
    standby.onFrame(closeFrame(4, 1, 1, 1), 100);
    EXPECT_EQ(standby.appliedRecEpoch(), 1u);
    EXPECT_EQ(standby.epochsApplied(), 1u);
    EXPECT_EQ(standby.pendingEpochs(), 0u);
}

// ---------------------------------------------------------------
// End-to-end: primary System -> standby replica
// ---------------------------------------------------------------

Config
cfgRepl(const char *workload)
{
    Config cfg = defaultConfig();
    cfg.set("sys.cores", std::uint64_t(8));
    cfg.set("sys.cores_per_vd", std::uint64_t(2));
    cfg.set("l1.kb", std::uint64_t(4));
    cfg.set("l2.kb", std::uint64_t(16));
    cfg.set("llc.mb", std::uint64_t(1));
    cfg.set("wl.ops", std::uint64_t(600));
    cfg.set("epoch.stores_global", std::uint64_t(6000));
    cfg.set(std::string("wl.") + workload + ".prefill",
            std::uint64_t(512));
    cfg.set("sim.track_writes", "true");
    cfg.set("repl.enabled", "true");
    return cfg;
}

repl::Replicator &
replicatorOf(System &sys)
{
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    EXPECT_NE(scheme.replicator(), nullptr);
    return *scheme.replicator();
}

TEST(ReplSystem, CleanLinkConvergesByteExact)
{
    setQuiet(true);
    System sys(cfgRepl("btree"), "nvoverlay", "btree");
    sys.run();
    auto &rep = replicatorOf(sys);
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());

    EpochWide rec = scheme.backend().recEpoch();
    ASSERT_GT(rec, 2u);   // the run must span several epochs
    EXPECT_EQ(rep.replica().appliedRecEpoch(), rec);
    EXPECT_EQ(rep.shipper().cursor(), rec);
    EXPECT_EQ(rep.shipper().durableCursor(), rec);

    auto report = rep.verify(*sys.tracker(), false);
    EXPECT_TRUE(report.converged);
    EXPECT_EQ(report.mismatches, 0u);
    EXPECT_GT(report.linesChecked, 0u);

    const RunStats &st = sys.stats();
    EXPECT_EQ(st.repl.epochsShipped, rec);
    EXPECT_EQ(st.repl.epochsApplied, rec);
    EXPECT_EQ(st.repl.appliedRecEpoch, rec);
    EXPECT_EQ(st.repl.cursorEpoch, rec);
    EXPECT_GT(st.repl.framesSent, rec);   // deltas + closes
    EXPECT_EQ(st.repl.framesDropped, 0u);
    EXPECT_GT(st.repl.wireBytes, st.repl.deltaBytes);
    EXPECT_GT(st.repl.cursorPersists, 0u);
}

TEST(ReplSystem, LossyLinkStillConvergesByteExact)
{
    setQuiet(true);
    Config cfg = cfgRepl("hashtable");
    cfg.set("repl.drop_rate", 0.02);
    cfg.set("repl.corrupt_rate", 0.005);
    System sys(cfg, "nvoverlay", "hashtable");
    sys.run();
    auto &rep = replicatorOf(sys);

    auto report = rep.verify(*sys.tracker(), false);
    EXPECT_TRUE(report.consistent())
        << report.mismatches << " mismatches, applied "
        << report.appliedRec;
    const RunStats &st = sys.stats();
    EXPECT_GT(st.repl.framesDropped + st.repl.framesCorrupted, 0u)
        << "lossy run exercised no loss; raise the rates";
    EXPECT_GT(st.repl.framesRetried, 0u);
}

/** Total cycles of an identical run, for picking crash points. */
Cycle
probeTotalCycles(const Config &cfg, const char *workload)
{
    System sys(cfg, "nvoverlay", workload);
    sys.run();
    return sys.now();
}

TEST(ReplSystem, CrashResumeReshipsOnlyFromDurableCursor)
{
    setQuiet(true);
    Config cfg = cfgRepl("btree");
    cfg.set("persist.armed", "true");
    Cycle total = probeTotalCycles(cfg, "btree");
    ASSERT_GT(total, 100u);

    System sys(cfg, "nvoverlay", "btree");
    ASSERT_FALSE(sys.runUntil(total / 2));   // power cut mid-run
    const fault::CrashReport report = fault::crashAndRecover(sys);
    ASSERT_TRUE(report.standby.has_value());
    const auto &standby = *report.standby;
    EpochWide rec = report.recEpoch;
    ASSERT_GT(rec, 0u);
    ASSERT_GT(standby.durableCursor, 0u)
        << "crash landed before any epoch was acked; move the "
           "crash point";

    // The resume-from-cursor proof: only (durableCursor, rec] went
    // over the wire again — not the whole history.
    EXPECT_EQ(standby.reshipped, rec - standby.durableCursor);
    EXPECT_LT(standby.reshipped, rec);
    EXPECT_EQ(standby.appliedRec, rec);
    EXPECT_GT(replicatorOf(sys).shipper().generation(), 1u);

    EXPECT_TRUE(report.consistent())
        << standby.mismatches << " standby mismatches at applied "
        << "epoch " << standby.appliedRec << ", " << report.mismatches
        << " primary mismatches";
}

TEST(ReplSystem, PrematureCursorBugIsCaughtByConvergenceCheck)
{
    setQuiet(true);
    Config cfg = cfgRepl("btree");
    cfg.set("persist.armed", "true");
    // A slow, high-latency link keeps shipped frames unacked for a
    // long time, so the crash reliably lands while the buggy cursor
    // is ahead of the acked prefix.
    cfg.set("repl.bw_bytes_per_cycle", std::uint64_t(2));
    cfg.set("repl.latency", std::uint64_t(400000));
    cfg.set("repl.ack_latency", std::uint64_t(400000));
    cfg.set("repl.test_cursor_bug", "true");
    Cycle total = probeTotalCycles(cfg, "btree");

    System sys(cfg, "nvoverlay", "btree");
    ASSERT_FALSE(sys.runUntil(total / 2));
    auto &rep = replicatorOf(sys);
    ASSERT_GT(rep.shipper().durableCursor(),
              rep.replica().appliedRecEpoch())
        << "bug did not manifest: every shipped epoch was already "
           "applied; slow the link down further";

    // The buggy cursor told resume those epochs were safe on the
    // standby; they never arrived, so the stream must NOT converge.
    const fault::CrashReport report = fault::crashAndRecover(sys);
    ASSERT_TRUE(report.standby.has_value());
    EXPECT_FALSE(report.standby->converged);
    EXPECT_LT(report.standby->appliedRec, report.recEpoch);
    EXPECT_FALSE(report.consistent());
}

TEST(ReplSystem, ResumeReshipsLateAmendmentAtItsOwnEpoch)
{
    // A late amendment still in flight at the crash, for an epoch
    // the standby had already applied: the standby ignores that
    // epoch's re-shipped deltas, so the re-shipped amendment must
    // carry the version of the epoch it amended, not the line's
    // newest recoverable one. This config and cut reproduce it.
    setQuiet(true);
    Config cfg = cfgRepl("btree");
    cfg.set("rng.seed", std::uint64_t(2021));
    cfg.set("repl.window", std::uint64_t(256));
    cfg.set("persist.armed", "true");

    System sys(cfg, "nvoverlay", "btree");
    ASSERT_FALSE(sys.runUntil(352000));
    auto &rep = replicatorOf(sys);
    const EpochWide applied = rep.replica().appliedRecEpoch();
    bool amends_applied_epoch = false;
    for (const auto &late : rep.shipper().lateLog())
        amends_applied_epoch |= late.epoch <= applied;
    ASSERT_TRUE(amends_applied_epoch)
        << "no un-trimmed late amendment for an epoch the standby "
           "applied (standby at epoch "
        << applied << "); the cut no longer exercises resume's "
        << "late-amendment path";

    const fault::CrashReport report = fault::crashAndRecover(sys);
    ASSERT_TRUE(report.standby.has_value());
    EXPECT_GT(report.standby->linesChecked, 0u);
    EXPECT_EQ(report.standby->mismatches, 0u);
    EXPECT_TRUE(report.consistent());
}

TEST(ReplSystem, DisabledByDefaultCostsNothing)
{
    setQuiet(true);
    Config cfg = cfgRepl("btree");
    cfg.set("repl.enabled", "false");
    System sys(cfg, "nvoverlay", "btree");
    sys.run();
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    EXPECT_EQ(scheme.replicator(), nullptr);
    EXPECT_EQ(sys.stats().repl.framesSent, 0u);
    EXPECT_EQ(sys.stats().repl.epochsShipped, 0u);
}

} // namespace
} // namespace repl
} // namespace nvo
