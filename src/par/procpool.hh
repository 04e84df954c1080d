/**
 * @file
 * Process-level fan-out for independent simulations.
 *
 * One simulation runs on one host thread. Crash campaigns and figure
 * sweeps run many completely independent simulations, so forkMap()
 * fans the task list across forked worker processes — each child a
 * full copy-on-write image of the parent, no shared simulator state
 * at all — and ships each task's result back over a pipe as an
 * opaque byte payload. forkMapOf() is the typed front end the callers
 * use: each task returns a trivially copyable value (a bench's Cell
 * struct, a campaign trial summary) whose object bytes are the
 * payload, so no caller writes a text codec.
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

#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/log.hh"

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

/**
 * forkMap() for a task function @p fn returning a trivially copyable
 * value: each value travels as its object bytes, and the values come
 * back in task order. Same scheduling, child_init and failure rules
 * as forkMap(); a payload of the wrong size is fatal.
 */
template <typename Fn,
          typename T = std::decay_t<std::invoke_result_t<Fn &, unsigned>>>
std::vector<T>
forkMapOf(unsigned num_tasks, unsigned jobs, Fn &&fn,
          const std::function<void(unsigned worker)> &child_init = {})
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "forkMapOf ships results as raw object bytes");
    std::vector<std::string> payloads = forkMap(
        num_tasks, jobs,
        [&fn](unsigned t) {
            const T value = fn(t);
            return std::string(reinterpret_cast<const char *>(&value),
                               sizeof value);
        },
        child_init);
    std::vector<T> results(num_tasks);
    for (unsigned t = 0; t < num_tasks; ++t) {
        if (payloads[t].size() != sizeof(T))
            fatal("forkMapOf: task %u sent %zu bytes, expected %zu", t,
                  payloads[t].size(), sizeof(T));
        std::memcpy(&results[t], payloads[t].data(), sizeof(T));
    }
    return results;
}

} // namespace par
} // namespace nvo

#endif // NVO_PAR_PROCPOOL_HH
