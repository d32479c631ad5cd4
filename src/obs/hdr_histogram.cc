#include "obs/hdr_histogram.h"

#include <algorithm>

#include "obs/stats_registry.h"

namespace mnemosyne::obs {

HdrHistogram::HdrHistogram(const char *key)
    : key_(key), buckets_(HdrLayout::kBucketCount)
{
    StatsRegistry::instance().add(this);
}

HdrHistogram::~HdrHistogram()
{
    StatsRegistry::instance().remove(this);
}

void
HdrHistogram::recordAlways(uint64_t v)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    if (v > HdrLayout::kMaxTrackable) {
        overflow_.fetch_add(1, std::memory_order_relaxed);
    } else {
        buckets_[HdrLayout::indexFor(v)].fetch_add(1,
                                                   std::memory_order_relaxed);
    }
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

HdrHistogram::Data
HdrHistogram::data() const
{
    Data d;
    d.count = count_.load(std::memory_order_relaxed);
    d.sum = sum_.load(std::memory_order_relaxed);
    d.overflow = overflow_.load(std::memory_order_relaxed);
    d.max = max_.load(std::memory_order_relaxed);
    d.buckets.resize(HdrLayout::kBucketCount);
    for (size_t i = 0; i < HdrLayout::kBucketCount; ++i)
        d.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    return d;
}

void
HdrHistogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    overflow_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

void
HdrHistogram::Data::record(uint64_t v)
{
    if (buckets.empty())
        buckets.resize(HdrLayout::kBucketCount, 0);
    ++count;
    sum += v;
    max = std::max(max, v);
    if (v > HdrLayout::kMaxTrackable)
        ++overflow;
    else
        ++buckets[HdrLayout::indexFor(v)];
}

uint64_t
HdrHistogram::Data::quantile(double q) const
{
    uint64_t total = overflow;
    for (uint64_t b : buckets)
        total += b;
    if (total == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    const uint64_t rank = uint64_t(double(total - 1) * q) + 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= rank)
            return HdrLayout::valueFor(i);
    }
    return HdrLayout::kMaxTrackable; // rank fell into the overflow bucket
}

HdrHistogram::Data
HdrHistogram::Data::operator-(const Data &base) const
{
    auto sat = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
    Data d;
    d.count = sat(count, base.count);
    d.sum = sat(sum, base.sum);
    d.overflow = sat(overflow, base.overflow);
    // Interval max is unknowable from endpoint snapshots; report the
    // endpoint max only if the interval actually recorded something.
    d.max = d.count ? max : 0;
    d.buckets.resize(std::max(buckets.size(), base.buckets.size()), 0);
    for (size_t i = 0; i < d.buckets.size(); ++i) {
        const uint64_t a = i < buckets.size() ? buckets[i] : 0;
        const uint64_t b = i < base.buckets.size() ? base.buckets[i] : 0;
        d.buckets[i] = sat(a, b);
    }
    return d;
}

void
HdrHistogram::Data::merge(const Data &other)
{
    count += other.count;
    sum += other.sum;
    overflow += other.overflow;
    max = std::max(max, other.max);
    if (buckets.size() < other.buckets.size())
        buckets.resize(other.buckets.size(), 0);
    for (size_t i = 0; i < other.buckets.size(); ++i)
        buckets[i] += other.buckets[i];
}

} // namespace mnemosyne::obs
