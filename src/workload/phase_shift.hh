/**
 * @file
 * PhaseShiftWorkload ("phased"): a sequencing wrapper that chains
 * inner workloads into phases, so adaptive-policy experiments
 * (docs/POLICY.md, bench fig_adaptive) can shift the offered load
 * mid-run and watch the epoch pacer re-converge.
 *
 * `wl.phases=btree:2000,kmeans:4000` runs 2000 B+Tree ops per thread,
 * then 4000 k-means ops per thread. Each phase's inner workload is
 * built from a copy of the run config with `wl.ops` set to the phase
 * length and any `wl.phase<i>.<key>` overrides rewritten to
 * `wl.<key>`, so per-phase sizing (`wl.phase1.kmeans.points=...`)
 * composes with the global keys. Threads advance through phases
 * independently (each exhausts its per-thread quota of phase i before
 * starting phase i+1), which keeps generation deterministic and
 * engine-agnostic — no cross-thread barrier exists in the reference
 * stream.
 */

#ifndef NVO_WORKLOAD_PHASE_SHIFT_HH
#define NVO_WORKLOAD_PHASE_SHIFT_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workload/workload.hh"

namespace nvo
{

class PhaseShiftWorkload : public WorkloadBase
{
  public:
    PhaseShiftWorkload(const Params &params, const Config &cfg);
    const char *name() const override { return "phased"; }
    void genOp(unsigned thread, std::vector<MemRef> &out) override;

    std::size_t numPhases() const { return phases.size(); }
    const std::string &
    phaseName(std::size_t i) const
    {
        return phases[i].name;
    }
    std::uint64_t
    phaseOps(std::size_t i) const
    {
        return phases[i].ops;
    }

    /** Phase @p thread is currently generating (== numPhases() once
     *  the thread has drained every phase). */
    std::size_t
    phaseOf(unsigned thread) const
    {
        return phaseIdx[thread];
    }

    /** Phase of the slowest thread — the run is "in" this phase. */
    std::size_t minPhase() const;

    /**
     * Parse a `wl.phases` spec ("name:ops,name:ops,..."); malformed
     * input is a user error (fatal). Exposed for the driver/tests.
     */
    static std::vector<std::pair<std::string, std::uint64_t>>
    parseSpec(const std::string &spec);

  private:
    struct Phase
    {
        std::string name;
        std::uint64_t ops;
        std::unique_ptr<WorkloadBase> wl;
    };

    /** Outer quota = sum of phase lengths, so nextOp()'s counting
     *  finishes exactly when the last phase drains. */
    static Params withTotalOps(Params p, const Config &cfg);

    std::vector<Phase> phases;
    std::vector<std::size_t> phaseIdx;   ///< per-thread current phase
};

} // namespace nvo

#endif // NVO_WORKLOAD_PHASE_SHIFT_HH
