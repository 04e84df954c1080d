/**
 * @file
 * nvo_ship — replication driver: ship epoch deltas to a standby
 * replica over a (configurable, lossy) async link and prove the
 * standby could take over.
 *
 *   nvo_ship workload=btree wl.ops=2000                 clean run
 *   nvo_ship repl.drop_rate=0.01 repl.corrupt_rate=0.001 lossy run
 *   nvo_ship crash_cycle=500000                         power cut
 *             mid-ship, then resume-from-cursor and re-verify
 *   nvo_ship crash_point=repl.cursor.persist crash_hit=3
 *             crash at a fault point (needs NVO_FAULT=ON)
 *   nvo_ship crash_campaign=20                          n seeded
 *             crash/resume trials at random cycles
 *   nvo_ship fuzz=10000                                 decoder
 *             fuzz smoke: mutated frame streams must never wedge
 *
 * Every mode exits nonzero when the standby would not serve the
 * primary's recoverable image byte-exact. A plain run or single crash
 * trial whose check read no line proved nothing and exits nonzero too
 * (NOTHING RECOVERABLE); campaign trials judge consistency alone. Any
 * other key=value is a Config override; repl.enabled is forced on
 * (except fuzz mode).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "fault/fault.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "repl/replicator.hh"
#include "repl/wire.hh"

using namespace nvo;

namespace
{

repl::Replicator &
replicatorOf(System &sys)
{
    auto *scheme = dynamic_cast<NVOverlayScheme *>(&sys.scheme());
    if (!scheme || !scheme->replicator())
        fatal("nvo_ship needs scheme=nvoverlay with repl.enabled");
    return *scheme->replicator();
}

void
printShipStats(const RunStats &st)
{
    std::printf(
        "shipped: %llu epochs, %llu frames (%llu late), %.2f MB "
        "deltas, %.2f MB wire\n"
        "link:    %llu drops, %llu corrupts, %llu retries, %llu "
        "deduped, queue peak %llu\n"
        "decode:  %llu crc errors, %llu resyncs\n"
        "cursor:  durable at epoch %llu (%llu persists), applied "
        "rec-epoch %llu\n",
        static_cast<unsigned long long>(st.repl.epochsShipped),
        static_cast<unsigned long long>(st.repl.framesSent),
        static_cast<unsigned long long>(st.repl.lateShipped),
        st.repl.deltaBytes / 1e6, st.repl.wireBytes / 1e6,
        static_cast<unsigned long long>(st.repl.framesDropped),
        static_cast<unsigned long long>(st.repl.framesCorrupted),
        static_cast<unsigned long long>(st.repl.framesRetried),
        static_cast<unsigned long long>(st.repl.framesDeduped),
        static_cast<unsigned long long>(st.repl.sendQueuePeak),
        static_cast<unsigned long long>(st.repl.decodeCrcErrors),
        static_cast<unsigned long long>(st.repl.decodeResyncs),
        static_cast<unsigned long long>(st.repl.cursorEpoch),
        static_cast<unsigned long long>(st.repl.cursorPersists),
        static_cast<unsigned long long>(st.repl.appliedRecEpoch));
}

/**
 * The verdict line of a plain run or a single crash trial; returns the
 * exit code. A check that read no line proves nothing, so it fails
 * too.
 */
int
printVerdict(const repl::Replicator::VerifyReport &rep,
             EpochWide primary_rec)
{
    const char *verdict = !rep.consistent()      ? "INCONSISTENT"
                          : rep.linesChecked == 0 ? "NOTHING RECOVERABLE"
                                                  : "CONSISTENT";
    std::printf("verify:  %llu (line, epoch) reads, %llu "
                "mismatches, %llu in-flight skips, standby at "
                "epoch %llu of %llu -> %s\n",
                static_cast<unsigned long long>(rep.linesChecked),
                static_cast<unsigned long long>(rep.mismatches),
                static_cast<unsigned long long>(rep.inflightSkips),
                static_cast<unsigned long long>(rep.appliedRec),
                static_cast<unsigned long long>(primary_rec), verdict);
    return rep.consistent() && rep.linesChecked > 0 ? 0 : 1;
}

/** Total cycles of a completed identical run (for crash points). */
Cycle
probeTotalCycles(Config cfg, const std::string &scheme,
                 const std::string &workload)
{
    System sys(cfg, scheme, workload);
    sys.run();
    return sys.now();
}

/**
 * One crash/resume trial: power-cut at @p cycle (or a fault point),
 * rewind to the durable cursor, re-ship, and check the standby is
 * byte-exact against everything the rebuilt primary recovered.
 */
int
crashTrial(Config cfg, const std::string &scheme,
           const std::string &workload, Cycle cycle,
           const std::string &point, std::uint64_t hit, bool quiet)
{
    cfg.set("sim.track_writes", "true");
    cfg.set("persist.armed", "true");
    System sys(cfg, scheme, workload);
    bool crashed = false;
    if (!point.empty()) {
        if (!fault::enabled)
            fatal("crash_point needs a build with NVO_FAULT=ON");
        fault::FaultPlan fp;
        fp.crashAt(point, hit);
        fault::ScopedPlan armed(std::move(fp));
        try {
            sys.run();
        } catch (const fault::CrashFault &) {
            crashed = true;
        }
    } else {
        crashed = !sys.runUntil(cycle);
    }

    auto &rep = replicatorOf(sys);
    auto &scm = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    EpochWide durable_before = rep.shipper().durableCursor();

    rep.onCrash();
    scm.backend().crashReset();
    EpochWide rec = scm.backend().recEpoch();
    std::uint64_t reshipped = rep.resume(sys.now());
    rep.drain(sys.now());
    rep.exportStats();

    if (!quiet) {
        std::printf("crash:   %s at %s, primary rec-epoch %llu\n",
                    crashed ? "crashed" : "completed (plan never "
                                          "fired)",
                    point.empty() ? ("cycle " + std::to_string(cycle))
                                        .c_str()
                                  : point.c_str(),
                    static_cast<unsigned long long>(rec));
        std::printf("resume:  cursor was durable at epoch %llu; "
                    "re-shipped %llu of %llu epochs (generation "
                    "%u)\n",
                    static_cast<unsigned long long>(durable_before),
                    static_cast<unsigned long long>(reshipped),
                    static_cast<unsigned long long>(rec),
                    rep.shipper().generation());
        printShipStats(sys.stats());
    }
    // The resume-from-cursor guarantee: never a full restream once
    // the cursor has advanced.
    if (durable_before > 0 && reshipped >= rec && rec > 0) {
        std::fprintf(stderr,
                     "FAIL: resume restreamed all %llu epochs "
                     "despite a durable cursor at %llu\n",
                     static_cast<unsigned long long>(reshipped),
                     static_cast<unsigned long long>(durable_before));
        return 1;
    }
    auto report = rep.verify(*sys.tracker(), true);
    if (quiet)
        return report.consistent() ? 0 : 1;
    return printVerdict(report, rec);
}

/** Mutated frame streams must decode-or-resync, never wedge. */
int
fuzzSmoke(std::uint64_t rounds, std::uint64_t seed)
{
    Rng rng(seed);
    repl::Decoder dec;
    std::uint64_t fed = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        repl::Frame f;
        f.type = (r % 5 == 0) ? repl::FrameType::EpochClose
                              : repl::FrameType::Delta;
        f.generation = static_cast<std::uint32_t>(r / 100 + 1);
        f.epoch = r / 10 + 1;
        f.arg = 0x1000 + 64 * r;
        f.frameId = r + 1;
        for (std::size_t i = 0; i < lineBytes; ++i)
            f.payload.bytes[i] =
                static_cast<std::uint8_t>(rng.next() & 0xFF);
        auto bytes = repl::encode(f);
        switch (rng.next() % 4) {
        case 0:
            bytes[rng.next() % bytes.size()] ^= static_cast<
                std::uint8_t>(1 + rng.next() % 255);
            break;
        case 1:
            bytes.resize(1 + rng.next() % bytes.size());
            break;
        case 2: {
            std::vector<std::uint8_t> junk(rng.next() % 64);
            for (auto &b : junk)
                b = static_cast<std::uint8_t>(rng.next() & 0xFF);
            bytes.insert(bytes.begin(), junk.begin(), junk.end());
            break;
        }
        default:
            break;
        }
        fed += bytes.size();
        dec.feed(bytes);
        while (dec.poll()) {
        }
    }
    // A pristine frame at the end must always decode: whatever the
    // fuzz left buffered cannot wedge the stream.
    repl::Frame probe;
    probe.type = repl::FrameType::EpochClose;
    probe.epoch = 1;
    probe.frameId = ~0ull;
    dec.feed(repl::encode(probe));
    bool alive = false;
    while (auto got = dec.poll())
        alive |= got->frameId == ~0ull;
    std::printf("fuzz:    %llu rounds, %.2f MB fed, %llu decoded, "
                "%llu crc errors, %llu resyncs, %llu discarded -> "
                "%s\n",
                static_cast<unsigned long long>(rounds), fed / 1e6,
                static_cast<unsigned long long>(dec.framesDecoded()),
                static_cast<unsigned long long>(dec.crcErrors()),
                static_cast<unsigned long long>(dec.resyncs()),
                static_cast<unsigned long long>(dec.bytesDiscarded()),
                alive ? "PASS" : "WEDGED");
    return alive ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scheme = "nvoverlay";
    std::string workload = "btree";
    std::string crash_point;
    std::uint64_t crash_hit = 1;
    Cycle crash_cycle = 0;
    unsigned campaign = 0;
    std::uint64_t fuzz_rounds = 0;

    Config cfg = defaultConfig();
    applyOverrides(cfg);

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto eq = arg.find('=');
        if (eq == std::string::npos) {
            std::fprintf(stderr, "malformed argument '%s' "
                                 "(want key=value)\n",
                         arg.c_str());
            return 2;
        }
        std::string key = arg.substr(0, eq);
        std::string val = arg.substr(eq + 1);
        if (key == "scheme")
            scheme = val;
        else if (key == "workload")
            workload = val;
        else if (key == "crash_point")
            crash_point = val;
        else if (key == "crash_hit")
            crash_hit = std::strtoull(val.c_str(), nullptr, 0);
        else if (key == "crash_cycle")
            crash_cycle = std::strtoull(val.c_str(), nullptr, 0);
        else if (key == "crash_campaign")
            campaign = static_cast<unsigned>(
                std::strtoull(val.c_str(), nullptr, 0));
        else if (key == "fuzz")
            fuzz_rounds = std::strtoull(val.c_str(), nullptr, 0);
        else
            cfg.set(key, val);
    }

    if (fuzz_rounds > 0)
        return fuzzSmoke(fuzz_rounds, cfg.getU64("rng.seed", 1));

    cfg.set("repl.enabled", "true");
    cfg.set("sim.track_writes", "true");

    if (!crash_point.empty() || crash_cycle > 0)
        return crashTrial(cfg, scheme, workload, crash_cycle,
                          crash_point, crash_hit, false);

    if (campaign > 0) {
        // Seeded power-cut sweep across the run's cycle span; every
        // trial must resume from its durable cursor and converge.
        Cycle total = probeTotalCycles(cfg, scheme, workload);
        Rng rng(cfg.getU64("rng.seed", 1));
        unsigned failures = 0;
        for (unsigned t = 0; t < campaign; ++t) {
            // Land in the meaty middle: early crashes have no
            // durable cursor yet, late ones nothing left to ship.
            Cycle at = total / 5 + rng.next() % (3 * total / 5 + 1);
            int rc = crashTrial(cfg, scheme, workload, at, "", 1,
                                true);
            if (rc != 0)
                ++failures;
            std::printf("trial %2u: crash at cycle %llu -> %s\n", t,
                        static_cast<unsigned long long>(at),
                        rc == 0 ? "consistent" : "FAILED");
        }
        std::printf("crash campaign: %u trials, %u failures -> %s\n",
                    campaign, failures,
                    failures == 0 ? "PASS" : "FAIL");
        return failures == 0 ? 0 : 1;
    }

    // Plain run: ship everything while the workload executes, then
    // verify the standby byte-exact at every epoch.
    System sys(cfg, scheme, workload);
    sys.run();
    auto &rep = replicatorOf(sys);
    auto &scm = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    EpochWide rec = scm.backend().recEpoch();
    printShipStats(sys.stats());
    return printVerdict(rep.verify(*sys.tracker(), false), rec);
}
