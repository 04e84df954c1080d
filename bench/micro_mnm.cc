/**
 * @file
 * Micro-benchmarks (google-benchmark) for the MNM hot paths: per-
 * epoch table insertion, master-table insert/lookup, page-pool
 * allocation, OMC buffer insertion, and a backend insert with many
 * epoch tables retained — the operations on the OMC's critical path
 * for every version write back.
 */

#include <benchmark/benchmark.h>

#include "bench_common.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "mem/nvm_model.hh"
#include "nvoverlay/epoch_table.hh"
#include "nvoverlay/master_table.hh"
#include "nvoverlay/omc.hh"
#include "nvoverlay/omc_buffer.hh"
#include "nvoverlay/page_pool.hh"

namespace
{

using namespace nvo;

constexpr Addr poolBase = 1ull << 40;

void
BM_EpochTableInsert(benchmark::State &state)
{
    PagePool pool(poolBase, 1ull << 30);
    EpochTable table(1, pool, EpochTable::Params{});
    LineData content;
    Rng rng(1);
    SeqNo seq = 0;
    for (auto _ : state) {
        Addr a = lineAlign(rng.below(1ull << 28));
        benchmark::DoNotOptimize(table.insert(a, ++seq, content));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochTableInsert);

void
BM_EpochTableLookup(benchmark::State &state)
{
    PagePool pool(poolBase, 1ull << 30);
    EpochTable table(1, pool, EpochTable::Params{});
    LineData content;
    Rng fill(2);
    for (int i = 0; i < 100000; ++i)
        table.insert(lineAlign(fill.below(1ull << 26)), i, content);
    Rng rng(3);
    for (auto _ : state) {
        Addr a = lineAlign(rng.below(1ull << 26));
        benchmark::DoNotOptimize(table.lookupNvm(a));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochTableLookup);

void
BM_MasterTableInsert(benchmark::State &state)
{
    MasterTable mt;
    Rng rng(4);
    for (auto _ : state) {
        Addr a = lineAlign(rng.below(1ull << 30));
        benchmark::DoNotOptimize(mt.insert(tenant::keyOf(a), poolBase, 1));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MasterTableInsert);

void
BM_MasterTableLookup(benchmark::State &state)
{
    MasterTable mt;
    Rng fill(5);
    for (int i = 0; i < 200000; ++i)
        mt.insert(tenant::keyOf(lineAlign(fill.below(1ull << 28))), poolBase + i, 1);
    Rng rng(6);
    for (auto _ : state) {
        Addr a = lineAlign(rng.below(1ull << 28));
        benchmark::DoNotOptimize(mt.lookup(a));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MasterTableLookup);

void
BM_PagePoolAllocFree(benchmark::State &state)
{
    PagePool pool(poolBase, 1ull << 26);
    unsigned lines = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        Addr a = pool.allocLines(lines, 0);
        benchmark::DoNotOptimize(a);
        pool.freeLines(a, lines, 0);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PagePoolAllocFree)->Arg(1)->Arg(4)->Arg(64);

void
BM_OmcBufferInsert(benchmark::State &state)
{
    OmcBuffer buf(OmcBuffer::Params{});
    Rng rng(7);
    for (auto _ : state) {
        Addr a = lineAlign(rng.below(1ull << 24));
        benchmark::DoNotOptimize(buf.insert(a, 1));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OmcBufferInsert);

/**
 * MnmBackend::insertVersion into the newest epoch while N older epoch
 * tables are retained in every OMC partition (nothing merges: no VD
 * certifies). The timed inserts overwrite a warmed 64-page working
 * set, so every iteration does the same work; its cost should not
 * depend on N.
 */
void
BM_MnmInsertWithRetainedTables(benchmark::State &state)
{
    RunStats stats;
    NvmModel nvm(NvmModel::Params{}, &stats);
    MnmBackend backend(MnmBackend::Params{}, nvm, stats);
    LineData content;
    const auto tables = static_cast<EpochWide>(state.range(0));
    SeqNo seq = 0;
    // One version per partition in each of epochs 1..N: four
    // consecutive lines land in the four line-interleaved OMCs.
    for (EpochWide e = 1; e <= tables; ++e)
        for (Addr line = 0; line < 4; ++line)
            backend.insertVersion(e * pageBytes + line * lineBytes, e,
                                  ++seq, content, 0);
    constexpr Addr set = 1ull << 32;
    constexpr Addr setBytes = 64 * pageBytes;
    for (Addr a = set; a < set + setBytes; a += lineBytes)
        backend.insertVersion(a, tables, ++seq, content, 0);
    Rng rng(8);
    for (auto _ : state) {
        Addr a = set + lineAlign(rng.below(setBytes));
        benchmark::DoNotOptimize(
            backend.insertVersion(a, tables, ++seq, content, 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MnmInsertWithRetainedTables)->Arg(64)->Arg(4096);

/**
 * Console reporter that additionally captures every finished run
 * into the shared bench JSON report, so micro_mnm honours the same
 * `--json <path>` contract as the figure benches.
 */
class JsonCaptureReporter : public benchmark::ConsoleReporter
{
  public:
    explicit JsonCaptureReporter(bench::JsonReport &report)
        : report_(report)
    {
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            report_.add("mnm", run.benchmark_name(), "ns_per_op",
                        run.GetAdjustedRealTime());
            auto it = run.counters.find("items_per_second");
            if (it != run.counters.end())
                report_.add("mnm", run.benchmark_name(),
                            "items_per_second",
                            static_cast<double>(it->second));
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    bench::JsonReport &report_;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("micro_mnm",
                             bench::takeFlag(argc, argv, "--json"));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    JsonCaptureReporter reporter(report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    report.write();
    benchmark::Shutdown();
    return 0;
}
