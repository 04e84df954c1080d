/**
 * @file
 * Quickstart: run a small parallel workload under NVOverlay, crash in
 * the middle, recover the consistent image, and time-travel through
 * the snapshots.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "harness/system.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "nvoverlay/recovery.hh"
#include "nvoverlay/snapshot_reader.hh"

using namespace nvo;

int
main()
{
    // 1. Configure a 16-core system (Table II defaults) with frequent
    //    snapshots and run a B+Tree bulk-insert workload on it.
    Config cfg = defaultConfig();
    cfg.set("wl.ops", std::uint64_t(2000));
    cfg.set("epoch.stores_global", std::uint64_t(50000));
    cfg.set("sim.track_writes", "true");

    System sys(cfg, "nvoverlay", "btree");

    // 2. Crash the machine mid-run: everything volatile is lost; only
    //    the NVM image (master table, rec-epoch, overlay pages with
    //    their sub-page headers) survives, and the OMCs rebuild their
    //    per-epoch tables from it.
    bool finished = sys.runUntil(3'000'000);
    auto &scheme = dynamic_cast<NVOverlayScheme &>(sys.scheme());
    scheme.backend().crashReset();

    std::printf("simulated %llu cycles, %llu stores, crash=%s\n",
                static_cast<unsigned long long>(sys.stats().cycles),
                static_cast<unsigned long long>(sys.stats().stores),
                finished ? "after-completion" : "mid-run");

    // 3. Recover: scan the master mapping table, rebuild the image.
    RecoveryManager rm(scheme.backend());
    auto recovered = rm.recover();
    std::printf("recovered epoch %llu: %llu lines restored "
                "(model: %.2f ms of NVM reads)\n",
                static_cast<unsigned long long>(recovered.recEpoch),
                static_cast<unsigned long long>(
                    recovered.linesRestored),
                recovered.modelCycles / 3e6);

    std::string err = RecoveryManager::validate(recovered,
                                                scheme.backend());
    std::printf("recovery validation: %s\n",
                err.empty() ? "OK" : err.c_str());

    if (recovered.linesRestored == 0) {
        std::printf("nothing recoverable yet at this cut\n");
        return 1;
    }

    // 4. Time travel: read one snapshotted line across epochs.
    SnapshotReader reader(scheme.backend());
    Addr probe = invalidAddr;
    scheme.backend().forEachMasterEntry(
        [&](Addr line, const MasterTable::Entry &) {
            if (probe == invalidAddr)
                probe = line;
        });
    for (EpochWide e = 1; e <= recovered.recEpoch; ++e) {
        auto v = reader.readLine(probe, e);
        if (v)
            std::printf("  line 0x%llx @ epoch %llu -> version "
                        "from epoch %llu (digest %016llx)\n",
                        static_cast<unsigned long long>(probe),
                        static_cast<unsigned long long>(e),
                        static_cast<unsigned long long>(v->epoch),
                        static_cast<unsigned long long>(
                            v->data.digest()));
    }
    return err.empty() ? 0 : 1;
}
