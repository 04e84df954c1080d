#include "mem/nvm_model.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "fault/fault.hh"
#include "mem/persist_domain.hh"
#include "obs/trace.hh"

namespace nvo
{

NvmModel::NvmModel(const Params &params, RunStats *run_stats)
    : p(params), stats(run_stats), bankFree(params.banks, 0)
{
    nvo_assert(params.banks > 0);
    nvo_assert(params.writeOccupancy > 0);
    // Buffer window expressed in drain time: how long the device may
    // run behind demand before issuers feel back-pressure.
    windowCycles = static_cast<Cycle>(
        static_cast<double>(p.bufferBytes) /
        (static_cast<double>(p.banks) * lineBytes /
         static_cast<double>(p.writeOccupancy)));
    persist_ = std::make_unique<PersistDomain>(*this);
}

NvmModel::~NvmModel() = default;

PersistDomain &
NvmModel::persist()
{
    return *persist_;
}

double
NvmModel::bytesPerCycle() const
{
    return static_cast<double>(p.banks) * lineBytes /
           static_cast<double>(p.writeOccupancy);
}

unsigned
NvmModel::bankOf(Addr addr) const
{
    // Interleave consecutive lines across banks.
    return static_cast<unsigned>((addr >> lineBytesLog2) % p.banks);
}

NvmModel::Issue
NvmModel::write(Addr addr, std::uint32_t bytes, Cycle now,
                NvmWriteKind kind)
{
    nvo_assert(bytes > 0);
    NVO_FAULT_POINT("nvm.write");

    // Bandwidth model: accumulate drain work on the aggregate device
    // clock; stall only when the backlog no longer fits the buffer.
    // Issuer clocks are only loosely synchronized (bound-and-weave
    // quanta), so back-pressure is computed against a monotonic
    // device-side view of time to avoid quantum-skew artifacts.
    deviceNow = std::max(deviceNow, now);
    Cycle work = std::max<Cycle>(
        1, (static_cast<Cycle>(bytes) * p.writeOccupancy) /
               (static_cast<Cycle>(p.banks) * lineBytes));
    busyUntil = std::max(busyUntil, deviceNow) + work;

    Cycle stall = 0;
    if (busyUntil > deviceNow + windowCycles) {
        stall = busyUntil - windowCycles - deviceNow;
        now += stall;
        NVO_TRACE(Nvm, NvmStall, obs::trackNvm, now, stall,
                  busyUntil - deviceNow);
    }
    NVO_TRACE(Nvm, NvmBacklog, obs::trackNvm, now,
              busyUntil > deviceNow ? busyUntil - deviceNow : 0, 0);

    // Durability model: the write lands in its bank.
    Cycle completion = now;
    std::uint32_t chunks = (bytes + lineBytes - 1) / lineBytes;
    for (std::uint32_t i = 0; i < chunks; ++i) {
        unsigned bank = bankOf(addr + i * lineBytes);
        Cycle start = std::max(now, bankFree[bank]);
        Cycle done = start + p.writeOccupancy;
        bankFree[bank] = done;
        if (done > completion)
            completion = done;
        if (p.wearEnabled)
            ++wear_[(addr + i * lineBytes) / p.wearRegionBytes];
    }

    // The bandwidth time series records *drain* time (busyUntil), so
    // plotted bandwidth never exceeds device capacity even when the
    // DRAM buffer absorbs an issue burst (Fig. 17 semantics).
    if (stats)
        stats->addNvmWrite(kind, bytes, busyUntil);
    return Issue{stall, completion};
}

Cycle
NvmModel::read(Addr addr, std::uint32_t bytes, Cycle now)
{
    nvo_assert(bytes > 0);
    unsigned bank = bankOf(addr);
    Cycle start = std::max(now, bankFree[bank]);
    Cycle done = start + p.readLatency;
    if (stats)
        stats->nvmReadBytes += bytes;
    return done - now;
}

void
NvmModel::exportWear(RunStats &run_stats) const
{
    if (!p.wearEnabled || wear_.empty())
        return;
    std::uint64_t maxWrites = 0;
    std::uint64_t totalWrites = 0;
    for (const auto &kv : wear_) {
        maxWrites = std::max(maxWrites, kv.second);
        totalWrites += kv.second;
    }
    std::uint64_t regions = wear_.size();
    // Mean scaled x1000 so the skew stays meaningful in integer
    // stats; ratio = max/mean x1000 (1000 = perfectly level wear).
    std::uint64_t meanX1000 = totalWrites * 1000 / regions;
    run_stats.extra["nvm_wear_regions"] = regions;
    run_stats.extra["nvm_wear_region_bytes"] = p.wearRegionBytes;
    run_stats.extra["nvm_wear_line_writes"] = totalWrites;
    run_stats.extra["nvm_wear_max_writes"] = maxWrites;
    run_stats.extra["nvm_wear_mean_writes_x1000"] = meanX1000;
    run_stats.extra["nvm_wear_ratio_x1000"] =
        meanX1000 ? maxWrites * 1000 * 1000 / meanX1000 : 0;
}

Cycle
NvmModel::drainCompletion() const
{
    Cycle latest = busyUntil;
    for (Cycle c : bankFree)
        latest = std::max(latest, c);
    return latest;
}

} // namespace nvo
