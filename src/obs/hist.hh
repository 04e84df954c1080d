/**
 * @file
 * Fixed-footprint log-bucketed latency/size histogram (HDR style).
 *
 * Host-speed work (docs/OBSERVABILITY.md) needs distributions, not
 * averages: a radix walk that is usually 2 levels deep but
 * occasionally 5, or a page-pool scan that degrades from O(1) to a
 * full bitmap sweep, is invisible in a mean. A Histogram records
 * unsigned 64-bit samples into log-linear buckets: values below 16
 * are exact, and every higher octave is split into 16 sub-buckets, so
 * any reported quantile is within 1/16 (6.25%) relative error of the
 * true sample. The footprint is a fixed 976-bucket array (~7.8 KB) —
 * no allocation on the record path, ever.
 *
 * Buckets are plain counters, so two histograms merge by bucket-wise
 * addition without any loss.
 *
 * Cost model: record() is branch-free except for the sub-16 fast
 * test — a bit-scan, two shifts, and four add/stores. Call sites go
 * through the registry's NVO_METRIC macro (obs/registry.hh), which
 * compiles to nothing under NVO_METRIC=OFF and is one load and one
 * branch when compiled in but disarmed.
 */

#ifndef NVO_OBS_HIST_HH
#define NVO_OBS_HIST_HH

#include <array>
#include <cstdint>
#include <limits>

namespace nvo
{
namespace obs
{

class Histogram
{
  public:
    /** Sub-bucket resolution: each octave splits 2^subBits ways. */
    static constexpr unsigned subBits = 4;
    static constexpr unsigned subCount = 1u << subBits;   // 16

    /** Exact buckets 0..15 plus 60 octave groups of 16: the last
     *  group covers values with bit 63 set, so every uint64 maps. */
    static constexpr unsigned numBuckets =
        subCount + (64 - subBits) * subCount;   // 976

    /** Bucket index of sample @p v (total order, dense, < numBuckets). */
    static unsigned
    bucketIndex(std::uint64_t v)
    {
        if (v < subCount)
            return static_cast<unsigned>(v);
        unsigned e = floorLog2(v);
        return ((e - subBits + 1) << subBits) |
               static_cast<unsigned>((v >> (e - subBits)) &
                                     (subCount - 1));
    }

    /** Smallest sample value mapping to bucket @p idx. */
    static std::uint64_t
    bucketLow(unsigned idx)
    {
        if (idx < subCount)
            return idx;
        unsigned group = idx >> subBits;   // >= 1
        return static_cast<std::uint64_t>(subCount + (idx &
                                                      (subCount - 1)))
               << (group - 1);
    }

    void
    record(std::uint64_t v)
    {
        ++buckets_[bucketIndex(v)];
        ++count_;
        sum_ += v;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    /** Bucket-wise addition; exact (no resampling). */
    void
    merge(const Histogram &o)
    {
        for (unsigned i = 0; i < numBuckets; ++i)
            buckets_[i] += o.buckets_[i];
        count_ += o.count_;
        sum_ += o.sum_;
        if (o.min_ < min_)
            min_ = o.min_;
        if (o.max_ > max_)
            max_ = o.max_;
    }

    void
    reset()
    {
        buckets_.fill(0);
        count_ = 0;
        sum_ = 0;
        min_ = std::numeric_limits<std::uint64_t>::max();
        max_ = 0;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    /** Smallest/largest recorded sample; 0 when empty. */
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    std::uint64_t bucket(unsigned idx) const { return buckets_[idx]; }

    /**
     * Value at percentile @p p in [0, 100]: the lower bound of the
     * bucket holding the sample of rank ceil(p/100 * count), clamped
     * to [min, max] so exact extremes survive bucketing. Within 1/16
     * relative error of the rank-selected sample; 0 when empty.
     */
    std::uint64_t percentile(double p) const;

    /** Sum of all bucket occupancies (== count() unless corrupted;
     *  the invariant nvo_analyze checks offline). */
    std::uint64_t bucketOccupancySum() const;

  private:
    static unsigned
    floorLog2(std::uint64_t v)
    {
#if defined(__GNUC__) || defined(__clang__)
        return 63u - static_cast<unsigned>(__builtin_clzll(v));
#else
        unsigned e = 0;
        while (v >>= 1)
            ++e;
        return e;
#endif
    }

    std::array<std::uint64_t, numBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

} // namespace obs
} // namespace nvo

#endif // NVO_OBS_HIST_HH
