#include "tenant/tenant.hh"

#include <algorithm>
#include <string>

#include "common/config.hh"
#include "obs/registry.hh"

namespace nvo
{
namespace tenant
{

namespace
{
/** Cap one store's throttle stall so token debt cannot produce a
 *  cycle count that dwarfs the simulated run. */
constexpr Cycle maxStallPerStore = 1u << 20;
} // namespace

TenantManager::Params
TenantManager::paramsFrom(const Config &cfg)
{
    Params p;
    p.quotaLines = cfg.getU64("tenant.quota_lines", 0);
    p.softFraction = cfg.getF64("tenant.soft_fraction", 0.85);
    p.qosBytesPerKCycle =
        cfg.getU64("tenant.qos_bytes_per_kcycle", 0);
    p.qosBurstBytes = cfg.getU64("tenant.qos_burst_bytes", 64 * 1024);
    p.quotaPenaltyBytes =
        cfg.getU64("tenant.quota_penalty_bytes", 4096);
    return p;
}

TenantManager::TenantManager(const Params &params, RunStats &run_stats)
    : p(params), stats(run_stats)
{
}

TenantManager::PerTenant &
TenantManager::slot(Asid asid)
{
    auto [it, created] = tenants.try_emplace(asid);
    if (created) {
        it->second.tokens =
            static_cast<std::int64_t>(p.qosBurstBytes);
        it->second.hStall = obs::metricRegistry().addHist(
            "tenant.qos_stall_cycles.asid" + std::to_string(asid));
    }
    return it->second;
}

const TenantManager::PerTenant *
TenantManager::tenant(Asid asid) const
{
    auto it = tenants.find(asid);
    return it == tenants.end() ? nullptr : &it->second;
}

void
TenantManager::refill(PerTenant &t, Cycle now)
{
    if (now <= t.lastRefill) {
        t.lastRefill = std::max(t.lastRefill, now);
        return;
    }
    if (p.qosBytesPerKCycle) {
        Cycle delta = now - t.lastRefill;
        std::int64_t earned = static_cast<std::int64_t>(
            delta * p.qosBytesPerKCycle / 1024);
        t.tokens = std::min<std::int64_t>(
            static_cast<std::int64_t>(p.qosBurstBytes),
            t.tokens + earned);
    }
    t.lastRefill = now;
}

void
TenantManager::onInsert(Asid asid, std::uint32_t bytes, Cycle now)
{
    if (asid == 0)
        return;   // untenanted traffic is unmanaged
    PerTenant &t = slot(asid);
    ++t.inserts;
    refill(t, now);
    if (p.qosBytesPerKCycle)
        t.tokens -= bytes;
    if (p.quotaLines && linesOf) {
        std::uint64_t lines = linesOf(asid);
        t.peakLines = std::max(t.peakLines, lines);
        if (lines >= p.quotaLines) {
            // Over the hard cap: never drop the version (that would
            // punch a silent hole in the tenant's snapshot) — price
            // the tenant out with penalty debt instead.
            ++t.quotaRejections;
            stats.extra["tenant_quota_rejections"] += 1;
            t.tokens -=
                static_cast<std::int64_t>(p.quotaPenaltyBytes);
        } else if (static_cast<double>(lines) >=
                   p.softFraction *
                       static_cast<double>(p.quotaLines)) {
            ++t.softWarnings;
        }
    }
}

void
TenantManager::noteDataBytes(Asid asid, std::uint64_t bytes)
{
    if (asid == 0)
        return;
    slot(asid).dataBytes += bytes;
}

void
TenantManager::noteStore(Asid asid)
{
    if (asid == 0)
        return;
    ++slot(asid).storeLines;
}

Cycle
TenantManager::throttleStall(Asid asid, Cycle now)
{
    if (asid == 0)
        return 0;
    auto it = tenants.find(asid);
    if (it == tenants.end())
        return 0;
    PerTenant &t = it->second;
    refill(t, now);
    if (t.tokens >= 0)
        return 0;
    // Convert the debt to cycles at the refill rate (a nominal
    // 1 byte/cycle when QoS is off and the debt is pure quota
    // penalty); the stall itself repays the debt.
    std::uint64_t rate =
        p.qosBytesPerKCycle ? p.qosBytesPerKCycle : 1024;
    Cycle stall = static_cast<Cycle>(
        (static_cast<std::uint64_t>(-t.tokens) * 1024 + rate - 1) /
        rate);
    stall = std::min(stall, maxStallPerStore);
    t.tokens = 0;
    t.lastRefill = now + stall;
    t.throttleStallCycles += stall;
    stats.extra["tenant_throttle_stalls"] += stall;
    NVO_METRIC(record(t.hStall, stall));
    return stall;
}

void
TenantManager::orderForCompaction(std::vector<Addr> &lines)
{
    std::map<Asid, std::vector<Addr>> groups;
    for (Addr a : lines)
        groups[asidOf(a)].push_back(a);
    ++compactCursor;
    if (groups.size() <= 1)
        return;
    struct Group
    {
        Asid asid;
        std::uint64_t occ;
    };
    std::vector<Group> order;
    order.reserve(groups.size());
    for (const auto &kv : groups)
        order.push_back(
            {kv.first, linesOf ? linesOf(kv.first) : 0});
    std::uint64_t rot = compactCursor % (maxAsid + 1u);
    std::stable_sort(
        order.begin(), order.end(),
        [rot](const Group &a, const Group &b) {
            if (a.occ != b.occ)
                return a.occ > b.occ;
            return (a.asid + (maxAsid + 1u) - rot) % (maxAsid + 1u) <
                   (b.asid + (maxAsid + 1u) - rot) % (maxAsid + 1u);
        });
    lines.clear();
    for (const Group &g : order)
        for (Addr a : groups[g.asid])
            lines.push_back(a);
}

void
TenantManager::exportStats()
{
    for (const auto &kv : tenants) {
        const std::string prefix =
            "tenant." + std::to_string(kv.first) + ".";
        const PerTenant &t = kv.second;
        stats.extra[prefix + "inserts"] = t.inserts;
        stats.extra[prefix + "data_bytes"] = t.dataBytes;
        stats.extra[prefix + "store_lines"] = t.storeLines;
        stats.extra[prefix + "throttle_stalls"] =
            t.throttleStallCycles;
        stats.extra[prefix + "quota_rejections"] = t.quotaRejections;
        stats.extra[prefix + "soft_warnings"] = t.softWarnings;
        stats.extra[prefix + "peak_lines"] = t.peakLines;
        if (linesOf)
            stats.extra[prefix + "pool_lines"] = linesOf(kv.first);
    }
}

} // namespace tenant
} // namespace nvo
