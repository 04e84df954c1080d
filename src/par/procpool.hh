/**
 * @file
 * Process-level fan-out for independent simulations.
 *
 * One simulation runs on one host thread. Crash campaigns and figure
 * sweeps run many completely independent simulations, so forkMap()
 * fans the task list across forked worker processes — each child a
 * full copy-on-write image of the parent, no shared simulator state
 * at all — and ships each task's result back over a pipe as an
 * opaque byte payload.
 *
 * Determinism: tasks are assigned round-robin (task t -> worker
 * t % jobs) and results are returned indexed by task, so the caller
 * sees the same result vector regardless of the job count; callers
 * keep their RNG draws in the parent (e.g. the campaign pre-draws
 * every trial plan) so child scheduling cannot perturb seeded
 * streams.
 *
 * jobs <= 1 (or a single task) runs everything inline in the calling
 * process — identical behavior, no fork.
 */

#ifndef NVO_PAR_PROCPOOL_HH
#define NVO_PAR_PROCPOOL_HH

#include <functional>
#include <string>
#include <vector>

namespace nvo
{
namespace par
{

/**
 * Run tasks 0..@p num_tasks-1 through @p fn across @p jobs forked
 * workers and return the payloads in task order.
 *
 * @p child_init, when set, runs once in each child before its first
 * task (e.g. to silence per-trial log lines that would interleave
 * between processes). It never runs in the inline path.
 *
 * A worker that exits abnormally or drops a task payload is fatal:
 * campaign results must be complete to be meaningful.
 */
std::vector<std::string>
forkMap(unsigned num_tasks, unsigned jobs,
        const std::function<std::string(unsigned task)> &fn,
        const std::function<void(unsigned worker)> &child_init = {});

} // namespace par
} // namespace nvo

#endif // NVO_PAR_PROCPOOL_HH
