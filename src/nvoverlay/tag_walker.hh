/**
 * @file
 * Per-VD cache tag walker (paper Sec. IV-C).
 *
 * After a VD advances its epoch, the walker scans the VD's cache tags
 * for dirty versions older than the new epoch, downgrades them, and
 * drains them to the OMC in the background with a per-tick line
 * budget (spreading the write-back bandwidth instead of bursting it —
 * the property Fig. 17 measures). Once a scan's versions are fully
 * drained the walker reports min-ver to the OMC, which drives the
 * recoverable-epoch protocol (Sec. V-B).
 */

#ifndef NVO_NVOVERLAY_TAG_WALKER_HH
#define NVO_NVOVERLAY_TAG_WALKER_HH

#include <deque>

#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "nvoverlay/omc.hh"

namespace nvo
{

class TagWalker
{
  public:
    struct Params
    {
        unsigned vd = 0;
        /** Versions drained to the OMC per tick. */
        unsigned linesPerTick = 64;
        /** Disable the walker entirely (Fig. 15b experiment). */
        bool enabled = true;
    };

    TagWalker(const Params &params, Hierarchy &hierarchy,
              MnmBackend &backend, RunStats &run_stats);

    /** The VD advanced its epoch: schedule a scan. */
    void requestWalk();

    /**
     * Background progress; returns NVM back-pressure stall absorbed
     * by the walker (never charged to cores). The walker is
     * opportunistic (paper Sec. IV-C): a pending scan only runs once
     * the caller allows it, so demand evictions claim most old
     * versions first and the walker sweeps the remainder.
     */
    Cycle tick(Cycle now, bool allow_scan = true);

    /** No scan pending and nothing left to drain. */
    bool idle() const { return !scanPending && drainQueue.empty(); }

    /** Drive the walker to completion (finalize / tests). */
    void drainFully(Cycle now);

    std::uint64_t walksCompleted() const { return walks; }

    /**
     * Invariant sweep (NVO_AUDIT), paper Sec. IV-C / V-B: a disabled
     * walker holds no work; queued versions are line aligned and
     * strictly older than the VD's current epoch (@p vd_epoch, passed
     * in by the scheme); a pending report never regresses below the
     * last min-ver reported (min-ver monotonicity — the certification
     * the rec-epoch protocol is built on).
     */
    void audit(EpochWide vd_epoch) const;

  private:
    Params p;
    Hierarchy &hier;
    MnmBackend &backend;
    RunStats &stats;

    bool scanPending = false;
    EpochWide pendingMinVer = 0;
    bool reportPending = false;
    /** Backend-certified min-ver seen after our last report; the
     *  certified value must only ever advance (audit anchor). */
    EpochWide lastReported = 0;
    std::deque<Hierarchy::WalkVersion> drainQueue;
    std::uint64_t walks = 0;
};

} // namespace nvo

#endif // NVO_NVOVERLAY_TAG_WALKER_HH
