/**
 * @file
 * HdrHistogram: an HDR-style (High Dynamic Range) latency histogram with
 * bounded relative error, exact mergeable bucket counts, and cheap
 * p50/p90/p95/p99/p999 extraction.
 *
 * A power-of-two bucket would put a "p99" off by almost 2x, useless for
 * judging a group-commit change that moves p99 commit latency by 20%.
 * This histogram keeps kSubBits extra bits of mantissa per power of
 * two, bounding relative error to 2^-kSubBits (~3.1% at 5 bits) across
 * the whole range:
 *
 *  - values below 2^(kSubBits+1) are counted exactly (one bucket per
 *    value);
 *  - above that, each power-of-two range splits into 2^kSubBits
 *    sub-buckets;
 *  - values above kMaxTrackable land in an explicit overflow
 *    bucket (reported as <key>.overflow; quantiles that fall there
 *    saturate to kMaxTrackable).
 *
 * Recording is one relaxed fetch_add on the bucket plus count/sum
 * updates — wait-free and thread-safe.  The bucket array is a plain
 * `Data` value type, so two snapshots subtract bucket-wise: phase-scoped
 * diffing (obs::Phase) computes exact percentiles *of the interval*, not
 * of the process lifetime, and shards merge by addition.
 *
 * Like Counter, a named HdrHistogram self-registers with the
 * StatsRegistry and drops record()s while stats are disabled; snapshots
 * expand to <key>.count/.sum/.p50/.p90/.p95/.p99/.p999/.max/.overflow.
 */

#ifndef MNEMOSYNE_OBS_HDR_HISTOGRAM_H_
#define MNEMOSYNE_OBS_HDR_HISTOGRAM_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/obs.h"

namespace mnemosyne::obs {

/** Bucket geometry shared by the live histogram and its Data snapshots. */
struct HdrLayout {
    /** Sub-bucket precision bits: relative error <= 2^-kSubBits. */
    static constexpr unsigned kSubBits = 5;
    static constexpr uint64_t kSubCount = uint64_t(1) << kSubBits;

    /** Power-of-two ranges above the exact region.  40 ranges put the
     *  trackable max at 2^46 ns ~ 19.5 hours — plenty for any latency
     *  this system measures; beyond that is the overflow bucket. */
    static constexpr unsigned kRanges = 40;
    static constexpr uint64_t kMaxTrackable =
        (uint64_t(1) << (kSubBits + 1 + kRanges)) - 1;

    /** Exact region (2 * kSubCount) plus kSubCount per range. */
    static constexpr size_t kBucketCount =
        size_t(2 * kSubCount + kRanges * kSubCount);

    static size_t
    indexFor(uint64_t v)
    {
        if (v < 2 * kSubCount)
            return size_t(v);
        const unsigned w = unsigned(std::bit_width(v)); // >= kSubBits + 2
        const unsigned shift = w - (kSubBits + 1);
        // Top kSubBits+1 bits of v, in [kSubCount, 2*kSubCount), so the
        // first range (shift == 1) continues seamlessly at 2*kSubCount.
        const uint64_t top = v >> shift;
        return size_t(shift) * size_t(kSubCount) + size_t(top);
    }

    /** Highest value that maps to bucket @p i (its representative). */
    static uint64_t
    valueFor(size_t i)
    {
        if (i < 2 * kSubCount)
            return uint64_t(i);
        const unsigned shift = unsigned(i / kSubCount) - 1;
        const uint64_t top = kSubCount + (uint64_t(i) % kSubCount);
        // Upper bound of the sub-bucket: every discarded low bit set.
        return (top << shift) | ((uint64_t(1) << shift) - 1);
    }
};

class HdrHistogram
{
  public:
    /** Plain value type: a detached snapshot of the bucket counts.
     *  Subtracts bucket-wise (interval percentiles) and merges by
     *  addition (shard/thread aggregation).  Also usable on its own as
     *  a single-threaded, unregistered, ungated histogram. */
    struct Data {
        uint64_t count = 0;
        uint64_t sum = 0;
        uint64_t overflow = 0;
        uint64_t max = 0;
        std::vector<uint64_t> buckets;  ///< kBucketCount, or empty.

        /** Count @p v (not thread-safe; no registry, no stats gate). */
        void record(uint64_t v);

        /** Quantile in [0,1]; overflow counts as a final bucket that
         *  saturates to kMaxTrackable. */
        uint64_t quantile(double q) const;

        /** Bucket-wise saturating difference (this - base): exact
         *  percentiles for the interval between two snapshots. */
        Data operator-(const Data &base) const;

        /** Bucket-wise accumulate. */
        void merge(const Data &other);
    };

    /** @p key must outlive the histogram (string literal); registers
     *  with the StatsRegistry like Counter. */
    explicit HdrHistogram(const char *key);
    ~HdrHistogram();

    HdrHistogram(const HdrHistogram &) = delete;
    HdrHistogram &operator=(const HdrHistogram &) = delete;

    void
    record(uint64_t v)
    {
        if (enabled())
            recordAlways(v);
    }

    void recordAlways(uint64_t v);

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t total() const { return sum_.load(std::memory_order_relaxed); }
    uint64_t overflow() const
    {
        return overflow_.load(std::memory_order_relaxed);
    }
    uint64_t max() const { return max_.load(std::memory_order_relaxed); }

    uint64_t quantile(double q) const { return data().quantile(q); }

    Data data() const;
    void reset();
    const char *key() const { return key_; }

  private:
    const char *key_;
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> overflow_{0};
    std::atomic<uint64_t> max_{0};
    std::vector<std::atomic<uint64_t>> buckets_;
};

} // namespace mnemosyne::obs

#endif // MNEMOSYNE_OBS_HDR_HISTOGRAM_H_
