/**
 * @file
 * Shared pieces of the mnbench workload program: the self-checking value
 * layout, a deterministic RNG and Zipf sampler, a latency histogram,
 * the timed window, an in-memory span buffer written out as
 * a Chrome trace, and a tiny JSON writer.
 */

#ifndef MNBENCH_COMMON_H_
#define MNBENCH_COMMON_H_

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace mnbench {

using Clock = std::chrono::steady_clock;

inline uint64_t
nsSince(Clock::time_point t0, Clock::time_point t1)
{
    return uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

inline double
secondsSince(Clock::time_point t0)
{
    return double(nsSince(t0, Clock::now())) / 1e9;
}

// ---------------------------------------------------------------------------
// Value layout (the kv_perf layout): u64 seq | u64 fnv64(key, seq) | fill.
// A value is "whole" when its checksum and fill match its embedded seq.
// ---------------------------------------------------------------------------

inline uint64_t
fnv64(std::string_view s, uint64_t seq)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= uint8_t(c);
        h *= 0x100000001b3ULL;
    }
    for (int i = 0; i < 8; ++i) {
        h ^= uint8_t(seq >> (8 * i));
        h *= 0x100000001b3ULL;
    }
    return h;
}

inline void
fillValue(std::string &v, size_t size, std::string_view key, uint64_t seq)
{
    v.resize(size);
    const uint64_t sum = fnv64(key, seq);
    std::memcpy(v.data(), &seq, 8);
    std::memcpy(v.data() + 8, &sum, 8);
    for (size_t i = 16; i < size; ++i)
        v[i] = char(uint8_t(seq + i));
}

/** True when @p v is a whole value of @p size bytes for @p key; its
 *  embedded sequence number goes to *seq. */
inline bool
checkValue(std::string_view key, std::string_view v, size_t size,
           uint64_t *seq)
{
    if (v.size() != size || size < 16)
        return false;
    uint64_t s, sum;
    std::memcpy(&s, v.data(), 8);
    std::memcpy(&sum, v.data() + 8, 8);
    if (sum != fnv64(key, s))
        return false;
    for (size_t i = 16; i < size; ++i)
        if (uint8_t(v[i]) != uint8_t(s + i))
            return false;
    *seq = s;
    return true;
}

// ---------------------------------------------------------------------------
// Deterministic inputs.
// ---------------------------------------------------------------------------

/** splitmix64: seeds from --seed, streams are reproducible. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ULL + 1) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    uint64_t below(uint64_t n) { return next() % n; }
    double unit() { return double(next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t s_;
};

/** Zipf(theta) ranks in [0, n), rank 0 hottest (Gray et al., as in YCSB). */
class Zipf
{
  public:
    Zipf(uint64_t n, double theta) : n_(n), theta_(theta)
    {
        double zetan = 0;
        for (uint64_t i = 1; i <= n; ++i)
            zetan += 1.0 / std::pow(double(i), theta);
        const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
        zetan_ = zetan;
        alpha_ = 1.0 / (1.0 - theta);
        eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
               (1.0 - zeta2 / zetan);
    }

    uint64_t
    sample(Rng &rng) const
    {
        const double u = rng.unit();
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta_))
            return 1;
        const uint64_t r =
            uint64_t(double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return std::min(r, n_ - 1);
    }

  private:
    uint64_t n_;
    double theta_;
    double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

// ---------------------------------------------------------------------------
// Latency histogram in nanoseconds: log-linear, 64 sub-buckets per power
// of two (1.6% wide), exact below 128 ns.  Fixed size, so recording
// does not grow the process; quantiles interpolate within a bucket.
// Independent of the library's obs gate, so untraced runs report them.
// ---------------------------------------------------------------------------

class Hist
{
  public:
    void
    record(uint64_t v)
    {
        b_[std::min(index(v), kBuckets - 1)]++;
        n_++;
    }

    uint64_t size() const { return n_; }

    /** Quantile @p q in nanoseconds (0 when empty). */
    double
    quantile(double q) const
    {
        if (n_ == 0)
            return 0;
        const double rank = q * double(n_ - 1);
        uint64_t seen = 0;
        for (size_t i = 0; i < kBuckets; ++i) {
            if (b_[i] == 0 || double(seen + b_[i]) <= rank) {
                seen += b_[i];
                continue;
            }
            const double frac = (rank - double(seen) + 0.5) / double(b_[i]);
            return lower(i) + frac * width(i);
        }
        return lower(kBuckets - 1);
    }

  private:
    static constexpr unsigned kSubBits = 6;
    static constexpr size_t kSub = size_t(1) << kSubBits;
    static constexpr size_t kBuckets = 34 * kSub;

    static size_t
    index(uint64_t v)
    {
        if (v < 2 * kSub)
            return size_t(v);
        const unsigned shift = unsigned(std::bit_width(v)) - (kSubBits + 1);
        return size_t(shift) * kSub + size_t(v >> shift);
    }

    static unsigned
    shiftOf(size_t i)
    {
        return i < 2 * kSub ? 0 : unsigned(i / kSub) - 1;
    }

    static double
    lower(size_t i)
    {
        if (i < 2 * kSub)
            return double(i);
        return double((kSub + i % kSub) << shiftOf(i));
    }

    static double width(size_t i) { return double(uint64_t(1) << shiftOf(i)); }

    std::vector<uint64_t> b_ = std::vector<uint64_t>(kBuckets, 0);
    uint64_t n_ = 0;
};

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/** Read/write latencies (ns) of every operation that completed in the
 *  timed window, over the whole window and per whole second of it.  The
 *  reported figures are medians over the seconds, so a host stall (a
 *  burst of CPU steal, a slow phase of a shared core) that covers fewer
 *  than half of them does not set the result. */
class Window
{
  public:
    struct Second {
        Hist read, write;
    };

    /** A window opened at @p start that lasts @p seconds; its seconds
     *  are allocated up front, so recording does not grow the process. */
    Window(Clock::time_point start, double seconds)
        : start_(start),
          seconds_(std::max<size_t>(1, size_t(std::max(0.0, seconds))))
    {
    }

    void
    record(bool isRead, Clock::time_point done, uint64_t ns)
    {
        (isRead ? read : write).record(ns);
        if (done < start_)
            return;
        const size_t i = size_t(nsSince(start_, done) / 1000000000ULL);
        if (i < seconds_.size())
            (isRead ? seconds_[i].read : seconds_[i].write).record(ns);
    }

    const std::vector<Second> &seconds() const { return seconds_; }

    Hist read, write;

  private:
    Clock::time_point start_;
    std::vector<Second> seconds_;
};

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

class JsonObj
{
  public:
    JsonObj &
    num(const std::string &k, double v)
    {
        char buf[64];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof(buf), "%.9g", v);
        else
            std::snprintf(buf, sizeof(buf), "null");
        return raw(k, buf);
    }

    JsonObj &
    nums(const std::string &k, const std::vector<double> &v)
    {
        std::string a = "[";
        for (size_t i = 0; i < v.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", v[i]);
            a += buf;
        }
        return raw(k, a + "]");
    }

    JsonObj &
    raw(const std::string &k, const std::string &json)
    {
        body_ += body_.empty() ? "{" : ",";
        body_ += "\"" + k + "\":" + json;
        return *this;
    }

    std::string text() const { return body_.empty() ? "{}" : body_ + "}"; }

  private:
    std::string body_;
};

/** End-to-end figures of a window that lasted @p seconds, as JSON. */
std::string windowSummary(const Window &w, double seconds);

// ---------------------------------------------------------------------------
// Spans recorded at the benchmark's own call boundaries, kept in memory
// and written as a Chrome trace when the run ends.
// ---------------------------------------------------------------------------

class SpanBuffer
{
  public:
    explicit SpanBuffer(size_t capacity) { spans_.reserve(capacity); }

    void
    add(const char *name, uint32_t track, uint64_t id, Clock::time_point t0,
        Clock::time_point t1)
    {
        if (spans_.size() < spans_.capacity())
            spans_.push_back({name, track, id, t0, t1});
        else
            dropped_++;
    }

    /** Write {"traceEvents":[...]} to @p path; false on I/O error. */
    bool writeChromeTrace(const std::string &path, const char *process) const;

    size_t size() const { return spans_.size(); }
    uint64_t dropped() const { return dropped_; }

  private:
    struct Span {
        const char *name;
        uint32_t track;
        uint64_t id;
        Clock::time_point t0, t1;
    };
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
};

/** CPU seconds (user + system) this process has used so far. */
double cpuSeconds();

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** Argument lookup: value after @p flag, or @p dflt. */
std::string argOr(int argc, char **argv, const char *flag,
                  const std::string &dflt);

} // namespace mnbench

#endif // MNBENCH_COMMON_H_
