/**
 * @file
 * Low-latency crash recovery (paper usage model #4, Sec. V-E).
 *
 * Runs a 16-core OLTP-style workload (vacation) under NVOverlay,
 * kills the machine at a chosen cycle, and rebuilds the consistent
 * image from the persistent master table. The example then verifies
 * the recovery theorem against the recorded write history and prints
 * the modelled recovery latency (proportional to the working set, as
 * the paper states). A cut before the first recoverable epoch checks
 * no line and fails: it proves nothing.
 *
 *   ./build/examples/crash_recovery [crash_cycle]   (default 11 M)
 */

#include <cstdio>
#include <cstdlib>

#include "fault/crash_sim.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "nvoverlay/recovery.hh"

using namespace nvo;

int
main(int argc, char **argv)
{
    Cycle crash_at = argc > 1
                         ? static_cast<Cycle>(std::atoll(argv[1]))
                         : 11'000'000;

    Config cfg = defaultConfig();
    cfg.set("wl.ops", std::uint64_t(4000));
    cfg.set("epoch.stores_global", std::uint64_t(200000));
    cfg.set("sim.track_writes", "true");

    System sys(cfg, "nvoverlay", "vacation");
    bool finished = sys.runUntil(crash_at);
    std::printf("power failure at cycle %llu (%s)\n",
                static_cast<unsigned long long>(sys.now()),
                finished ? "workload had finished" : "mid-flight");

    // Everything volatile — caches, DRAM, the OMCs' per-epoch tables
    // — is gone; the backend rebuilds its tables from the sub-page
    // headers on NVM, recovery loads the master table's image, and
    // every line is checked against the write history.
    sys.memory().clear();   // DRAM contents lost
    fault::CrashReport rep = fault::crashAndRecover(sys);

    // Recovery only reads the NVM image, so a second pass reports
    // its modelled cost.
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    Cycle model = RecoveryManager(scheme.backend()).recover().modelCycles;
    std::printf("rec-epoch %llu: restored %llu lines (%.2f MB) in "
                "~%.2f ms of modelled NVM reads\n",
                static_cast<unsigned long long>(rep.recEpoch),
                static_cast<unsigned long long>(rep.linesRestored),
                rep.linesRestored * 64.0 / 1e6, model / 3e6);

    if (!rep.error.empty()) {
        std::printf("validation FAILED: %s\n", rep.error.c_str());
        return 1;
    }
    if (rep.linesChecked == 0) {
        std::printf("nothing recoverable yet at this cut: no line "
                    "checked\n");
        return 1;
    }
    std::printf("verified %llu lines against the write history: %s "
                "(%llu mismatches)\n",
                static_cast<unsigned long long>(rep.linesChecked),
                rep.consistent() ? "CONSISTENT" : "INCONSISTENT",
                static_cast<unsigned long long>(rep.mismatches));
    return rep.consistent() ? 0 : 1;
}
