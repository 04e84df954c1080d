/**
 * @file
 * Crash-campaign driver (the proof layer for paper Sec. V-E).
 *
 * crashAndRecover() is the one post-crash check: it power-fails the
 * MNM backend (MnmBackend::crashReset: volatile state gone, the
 * replication stream's included, modelled NVM truncated to its
 * durable prefix, tables rebuilt from the sub-page headers), rebuilds
 * the image via RecoveryManager, and verifies every tracked line
 * byte-exactly against the shadow write tracker at the recovered
 * rec-epoch. With replication on it then resumes the stream from its
 * durable cursor, drains it, and checks the standby the same way at
 * every epoch it applied (docs/REPLICATION.md).
 *
 * A trial runs a full workload under an armed persist domain, crashes
 * it — either by a FaultPlan trigger at the Nth hit of a named fault
 * point, or by a power cut at a planned cycle — and runs that check.
 *
 * Known tolerated window: a version the frontend committed but the
 * backend never finished processing (the late-merge race of Fig. 6
 * optimization 2) dies with the caches, so on an armed run a
 * mismatching line whose defining store was never acked by the
 * backend is counted as an in-flight skip, not a failure (see
 * docs/PERSISTENCE.md).
 *
 * runCrashCampaign() sweeps seeded pseudo-random crash plans across
 * workloads deterministically: a probe run per workload learns each
 * fault point's hit population (and the total cycle budget for
 * cycle-mode plans), trials draw plans from a seeded Rng, and the
 * first failing plan is minimized to the smallest failing hit count
 * before being reported with a CLI repro line.
 *
 * With `trace.crash_out=<path>` set, a crashed run() flushes the
 * tracer's ring buffer to that path as Chrome trace-event JSON after
 * verification (so recovery events are included) — without this the
 * buffer would die with the volatile state it describes. A failing
 * campaign re-runs its minimized plan once at the end so the shipped
 * trace matches the printed repro line, not an arbitrary later trial.
 */

#ifndef NVO_FAULT_CRASH_SIM_HH
#define NVO_FAULT_CRASH_SIM_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "repl/replicator.hh"

namespace nvo
{

class System;

namespace fault
{

/** One planned crash. Empty point = power cut at `cycle` instead. */
struct CrashPlan
{
    std::string point;
    std::uint64_t hit = 1;
    Cycle cycle = 0;
};

struct CrashReport
{
    /** The planned crash actually fired (else the run completed and
     *  the final image was verified instead). */
    bool crashed = false;
    std::string firedPoint;
    std::uint64_t firedHit = 0;
    EpochWide recEpoch = 0;
    std::uint64_t linesChecked = 0;
    std::uint64_t mismatches = 0;
    /** Lines skipped because their defining version never reached
     *  the backend (tolerated in-flight loss window). */
    std::uint64_t inflightSkips = 0;
    std::uint64_t linesRestored = 0;
    /** Non-empty on structural recovery failure. */
    std::string error;
    /** The standby's check, when the scheme replicates. */
    std::optional<repl::Replicator::VerifyReport> standby;

    /** The primary's recovered image alone. */
    bool
    primaryConsistent() const
    {
        return mismatches == 0 && error.empty();
    }

    bool
    consistent() const
    {
        return primaryConsistent() && (!standby || standby->consistent());
    }
};

/**
 * Power-fail @p sys's NVOverlay backend where its run stands, recover
 * and validate the image, and compare every line the write tracker
 * (`sim.track_writes`) saw with its last store at or before the
 * recovered rec-epoch. Mismatches count as in-flight skips only when
 * the persist domain is armed, the only time the backend acks
 * versions. With a replicator, resume the stream, drain it and fill
 * `standby` from Replicator::verify under the same skip rule. Fills
 * the recovery fields of the report; how the run was cut (crashed,
 * firedPoint, firedHit) is the caller's to set.
 */
CrashReport crashAndRecover(System &sys);

/**
 * Runs one workload per run() call and crash-tests recovery. The
 * config is captured by value; run() forces `sim.track_writes` and
 * `persist.armed` on.
 */
class CrashSimulator
{
  public:
    CrashSimulator(const Config &cfg, std::string scheme,
                   std::string workload);

    CrashReport run(const CrashPlan &plan);

  private:
    Config cfg_;
    std::string scheme_;
    std::string workload_;
};

struct CampaignParams
{
    std::string scheme = "nvoverlay";
    std::vector<std::string> workloads;
    unsigned trials = 50;
    std::uint64_t seed = 1;
    /**
     * Worker processes for the trial sweep (par::forkMapOf); <= 1 runs
     * inline. Every plan is pre-drawn from the seeded Rng in the
     * parent before any trial executes, so the plan stream, the
     * merged result, and the first-failure choice (lowest trial
     * index) are identical for every job count.
     */
    unsigned jobs = 1;
};

struct CampaignResult
{
    unsigned trials = 0;
    /** Trials whose planned crash actually fired. */
    unsigned crashes = 0;
    unsigned failures = 0;
    std::uint64_t linesChecked = 0;
    std::uint64_t inflightSkips = 0;
    /** CLI repro of the first (minimized) failing plan. */
    std::string failingRepro;
    /** The minimized plan itself + its workload (trace re-run). */
    CrashPlan failingPlan;
    std::string failingWorkload;

    bool passed() const { return failures == 0; }
};

/**
 * Sweep @p params.trials seeded crash plans across the given
 * workloads. Point-mode plans need a build with NVO_FAULT=ON;
 * without it the campaign falls back to cycle-mode power cuts.
 */
CampaignResult runCrashCampaign(const Config &base_cfg,
                                const CampaignParams &params);

} // namespace fault
} // namespace nvo

#endif // NVO_FAULT_CRASH_SIM_HH
