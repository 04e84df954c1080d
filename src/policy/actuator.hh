/**
 * @file
 * Actuator: the single audited layer through which the policy engine
 * touches the running system.
 *
 * Controllers never reach into the scheme directly — every knob
 * change (the per-VD epoch length, a backend compaction pass)
 * funnels through one of these methods, which clamps the value,
 * counts the actuation, and emits a `policy_actuate` trace event.
 * That keeps the engine's side effects enumerable (the audit
 * counters are exported into `RunStats::extra`) and gives Chrome
 * traces a complete record of when and how the controllers steered
 * the run.
 */

#ifndef NVO_POLICY_ACTUATOR_HH
#define NVO_POLICY_ACTUATOR_HH

#include <cstdint>

#include "common/types.hh"

namespace nvo
{

class NVOverlayScheme;

namespace policy
{

/** Knob identifiers (`policy_actuate` trace a0). The values are
 *  stable trace ids, so a recorded trace decodes across versions;
 *  1 and 3 belonged to retired knobs. */
enum class Knob : std::uint64_t
{
    EpochLength = 0,
    Compaction = 2,
};

class Actuator
{
  public:
    explicit Actuator(NVOverlayScheme &scheme) : scheme_(scheme) {}

    /** Set the per-VD epoch length, clamped to [min, max]. Returns
     *  the value actually applied. */
    std::uint64_t setEpochLength(Cycle now, std::uint64_t stores,
                                 std::uint64_t min_stores,
                                 std::uint64_t max_stores);

    /** Run one backend compaction pass. */
    void triggerCompaction(Cycle now);

    // --- Audit counters (exported via PolicyEngine::exportStats) ---
    std::uint64_t epochSets() const { return epochSets_; }
    std::uint64_t compactions() const { return compactions_; }

  private:
    NVOverlayScheme &scheme_;
    std::uint64_t epochSets_ = 0;
    std::uint64_t compactions_ = 0;
};

} // namespace policy
} // namespace nvo

#endif // NVO_POLICY_ACTUATOR_HH
