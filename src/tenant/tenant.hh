/**
 * @file
 * Per-tenant resource policy for the multi-tenant MNM backend
 * (docs/MULTITENANCY.md).
 *
 * One OMC/MNM serving many ASID-tagged address spaces needs three
 * policies on top of the tag isolation the tables give for free:
 *
 *  - page-pool quotas: a hard per-tenant line cap plus a soft
 *    high-water mark. An over-cap tenant's versions are NEVER dropped
 *    (that would silently punch holes in its snapshots) — the tenant
 *    is priced out instead: each over-cap insert counts a rejection
 *    and charges penalty token debt so its cores stall until
 *    compaction reclaims its stale versions;
 *  - insert-bandwidth QoS: a token bucket per ASID refilled at the
 *    one configured rate, `tenant.qos_bytes_per_kcycle` bytes per
 *    1024 cycles. Debt converts to stall cycles charged to the
 *    *offending tenant's* stores only (NVOverlayScheme::onStore), so
 *    one hot tenant back-pressures itself, not its co-tenants;
 *  - compaction fairness: when a compaction pass moves versions of
 *    several tenants, their groups are served in descending-occupancy
 *    order with a rotating tie-break cursor, so the tenant holding
 *    the most pool space is reclaimed first and ties round-robin.
 *
 * The manager also owns per-tenant observability: insert/byte/stall
 * counters exported into RunStats::extra as `tenant.<asid>.*` keys,
 * plus live `tenant_throttle_stalls` / `tenant_quota_rejections`
 * aggregates the EpochSeries probes sample.
 */

#ifndef NVO_TENANT_TENANT_HH
#define NVO_TENANT_TENANT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "tenant/asid.hh"

namespace nvo
{

class Config;

namespace obs
{
struct HistMetric;
} // namespace obs

namespace tenant
{

class TenantManager
{
  public:
    struct Params
    {
        /** Hard page-pool cap per tenant, in lines (0 = unlimited). */
        std::uint64_t quotaLines = 0;
        /** Soft high-water fraction of the hard cap. */
        double softFraction = 0.85;
        /** Token-bucket refill: per-tenant insert-bandwidth budget in
         *  bytes per 1024 cycles (0 = QoS throttling off). */
        std::uint64_t qosBytesPerKCycle = 0;
        /** Token-bucket burst depth in bytes. */
        std::uint64_t qosBurstBytes = 64 * 1024;
        /** Token debt charged per over-hard-cap insert. */
        std::uint64_t quotaPenaltyBytes = 4096;
    };

    /** Read the tenant.* keys (caller gates on tenant.enabled). */
    static Params paramsFrom(const Config &cfg);

    struct PerTenant
    {
        std::int64_t tokens = 0;
        Cycle lastRefill = 0;
        std::uint64_t inserts = 0;
        std::uint64_t dataBytes = 0;
        std::uint64_t storeLines = 0;
        std::uint64_t throttleStallCycles = 0;
        std::uint64_t quotaRejections = 0;
        std::uint64_t softWarnings = 0;
        std::uint64_t peakLines = 0;
        /** Per-ASID QoS stall distribution
         *  (`tenant.qos_stall_cycles.asid<N>`), registered lazily
         *  when the tenant first shows activity. */
        obs::HistMetric *hStall = nullptr;
    };

    /** Current pool occupancy of one tenant, in lines (summed across
     *  OMC partitions by the scheme that wires the manager up). */
    using OccupancyFn = std::function<std::uint64_t(Asid)>;

    TenantManager(const Params &params, RunStats &run_stats);

    void setOccupancyFn(OccupancyFn fn) { linesOf = std::move(fn); }

    /**
     * A version from @p asid reached the backend: charge @p bytes to
     * the token bucket and enforce the pool quota. The insert itself
     * always proceeds.
     */
    void onInsert(Asid asid, std::uint32_t bytes, Cycle now);

    /** Per-tenant NVM data-byte attribution (deviceWrite funnel). */
    void noteDataBytes(Asid asid, std::uint64_t bytes);

    /** One store line from a core of @p asid (write-amp denominator). */
    void noteStore(Asid asid);

    /**
     * Stall cycles the calling core of @p asid must absorb to pay its
     * accumulated token debt (0 when the tenant is within budget).
     */
    Cycle throttleStall(Asid asid, Cycle now);

    /**
     * Compaction fairness: reorder @p lines (tagged line addresses of
     * one source epoch) so tenants are served descending-occupancy
     * first with a rotating tie-break.
     */
    void orderForCompaction(std::vector<Addr> &lines);

    /** Export per-tenant counters into RunStats::extra. */
    void exportStats();

    /** Tenant slot, or nullptr if @p asid never showed activity. */
    const PerTenant *tenant(Asid asid) const;

    std::size_t activeTenants() const { return tenants.size(); }
    const Params &params() const { return p; }

  private:
    PerTenant &slot(Asid asid);
    void refill(PerTenant &t, Cycle now);

    Params p;
    RunStats &stats;
    OccupancyFn linesOf;
    /** Ordered by ASID so exportStats emits deterministically. */
    std::map<Asid, PerTenant> tenants;
    std::uint64_t compactCursor = 0;
};

} // namespace tenant
} // namespace nvo

#endif // NVO_TENANT_TENANT_HH
