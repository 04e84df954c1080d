/**
 * @file
 * Figure 17: NVM write bandwidth over time on B+Tree, PiCL vs
 * NVOverlay.
 *
 * (a) default epochs: NVOverlay's version coherence amortizes write
 *     backs over execution; PiCL's tag walks surge at epoch
 *     boundaries (higher peaks and larger fluctuation).
 * (b) bursty epochs (time-travel-debugging watch points): three
 *     bursts of 1K / 10K / 100K-store epochs; NVOverlay sustains
 *     lower bandwidth under extremely small epochs.
 */

#include <array>

#include "bench_common.hh"
#include "harness/system.hh"
#include "nvoverlay/nvoverlay_scheme.hh"
#include "par/procpool.hh"

using namespace nvo;

namespace
{

constexpr unsigned numBins = 40;

/** One bandwidth series as the figure plots it: per-column GB/s,
 *  peak and mean over the execution window (`wrote` is false when
 *  the window saw no writes). A forkMapOf worker ships this back. */
struct Series
{
    bool wrote = false;
    std::array<double, numBins> gbps{};
    double peakGbps = 0;
    double meanGbps = 0;
};

Series
reduceSeries(const RunStats &st)
{
    const auto &bins = st.nvmBandwidth.buckets();
    const std::uint64_t bucket_cycles = st.nvmBandwidth.bucketCycles();
    // Trim the post-run shutdown flush: only buckets within the
    // execution window belong to the figure.
    std::size_t n = std::min<std::size_t>(
        bins.size(), st.cycles / bucket_cycles + 1);
    while (n > 0 && bins[n - 1] == 0)
        --n;
    Series s;
    if (n == 0)
        return s;
    s.wrote = true;
    // Re-bin to a fixed number of columns; report GB/s at 3 GHz.
    double cyc_per_bin = static_cast<double>(bucket_cycles);
    for (unsigned col = 0; col < numBins; ++col) {
        std::size_t lo = col * n / numBins;
        std::size_t hi = (col + 1) * n / numBins;
        if (hi == lo)
            hi = lo + 1;
        double bytes = 0;
        for (std::size_t i = lo; i < hi && i < n; ++i)
            bytes += static_cast<double>(bins[i]);
        s.gbps[col] = bytes / ((hi - lo) * cyc_per_bin) * 3e9 / 1e9;
    }
    // Peak / mean over the execution window only.
    double peak = 0, total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        peak = std::max(peak, static_cast<double>(bins[i]));
        total += static_cast<double>(bins[i]);
    }
    s.peakGbps = peak / cyc_per_bin * 3.0;
    s.meanGbps = total / (n * cyc_per_bin) * 3.0;
    return s;
}

void
printSeries(const char *label, const Series &s,
            bench::JsonReport &report, const std::string &section)
{
    std::printf("%-10s", label);
    if (!s.wrote) {
        std::printf(" (no writes)\n");
        return;
    }
    for (double gbps : s.gbps)
        std::printf(" %4.1f", gbps);
    std::printf("\n");
    std::printf("%-10s peak %.1f GB/s   mean %.1f GB/s\n", "",
                s.peakGbps, s.meanGbps);
    report.add(section, label, "peak_gbps", s.peakGbps);
    report.add(section, label, "mean_gbps", s.meanGbps);
}

/**
 * Run with three bursty-epoch windows (1K / 10K / 100K-store epochs)
 * interleaved with default-epoch phases: steps 2, 4, and 6 of every
 * 8-step cycle run bursty, mimicking watch points around suspicious
 * code segments.
 */
RunStats
burstyRun(const Config &cfg, const std::string &scheme)
{
    System sys(cfg, scheme, "btree");
    const std::uint64_t burst_stores[3] = {1000, 10000, 100000};
    const Cycle step = 400000;

    auto *nvo = dynamic_cast<NVOverlayScheme *>(&sys.scheme());
    std::uint64_t nvo_dflt = nvo ? nvo->storesPerEpochVdValue() : 0;
    std::uint64_t global_dflt = sys.scheme().storesPerEpoch();
    // Epoch sizes are nominal store uops; convert like the System.
    std::uint64_t upr = sys.config().getU64("epoch.uops_per_ref", 16);

    unsigned iter = 0;
    while (!sys.done()) {
        unsigned phase = iter % 8;
        int burst = phase == 2 ? 0 : (phase == 4 ? 1 : (phase == 6
                                                            ? 2
                                                            : -1));
        if (nvo) {
            std::uint64_t per_vd =
                burst >= 0 ? std::max<std::uint64_t>(
                                 1, burst_stores[burst] / upr / 8)
                           : nvo_dflt;
            nvo->setStoresPerEpochVd(per_vd);
        } else {
            std::uint64_t refs =
                burst >= 0 ? std::max<std::uint64_t>(
                                 1, burst_stores[burst] / upr)
                           : global_dflt;
            sys.scheme().setStoresPerEpoch(refs);
        }
        sys.runUntil(sys.now() + step);
        ++iter;
    }
    return sys.stats();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("fig17_bandwidth",
                             bench::takeFlag(argc, argv, "--json"));
    unsigned jobs = bench::takeCount(argc, argv, "--jobs");
    Config cfg = bench::benchConfig(argc, argv);
    report.setConfig(cfg);
    Config wcfg = bench::forWorkload(cfg, "btree");

    // Four independent runs — (a) default epochs, (b) bursty epochs,
    // each for PiCL and NVOverlay — fanned across --jobs workers and
    // merged in cell order: output is byte-identical for any job
    // count.
    const std::vector<Series> series =
        par::forkMapOf(4, jobs, [&](unsigned t) {
            const char *scheme = (t % 2) ? "nvoverlay" : "picl";
            if (t < 2) {
                System sys(wcfg, scheme, "btree");
                sys.run();
                return reduceSeries(sys.stats());
            }
            return reduceSeries(burstyRun(wcfg, scheme));
        });

    std::printf("Figure 17 — NVM write bandwidth over time "
                "(B+Tree; %u columns over the run; GB/s)\n\n",
                numBins);

    std::printf("(a) default 1M-uop epochs\n");
    printSeries("picl", series[0], report, "default_epochs");
    printSeries("nvoverlay", series[1], report, "default_epochs");

    std::printf("\n(b) bursty epochs (1K / 10K / 100K-store "
                "watch-point windows)\n");
    printSeries("picl", series[2], report, "bursty_epochs");
    printSeries("nvoverlay", series[3], report, "bursty_epochs");
    report.write();
    return 0;
}
