/**
 * @file
 * Observability core: lock-free, per-thread-sharded counters for every
 * layer of Figure 1 (latency histograms live in hdr_histogram.h).
 *
 * Design goals (see DESIGN.md "Observability"):
 *
 *  - Near-zero overhead when disabled: the MNEMOSYNE_STATS environment
 *    variable (or setEnabled()) gates every registered counter and
 *    histogram; when off, an instrumented call site costs one relaxed
 *    load and a predictable branch.
 *  - Lock-free hot path.  A counter is an array of cache-line-sized
 *    shards; a thread increments the shard picked by its process-wide
 *    ordinal with one relaxed fetch_add, so concurrent writers never
 *    share a line (until more than kMaxThreadShards threads exist, when
 *    ordinals wrap and shards are shared but stay correct).
 *  - Snapshots are sums over shards: never torn, at worst slightly
 *    stale relative to in-flight increments.
 *
 * ShardedCounter is the always-on value type used by layers that expose
 * their own stats structs (ScmStats, TxnStats).  Counter is the
 * registered, gated variant that feeds the StatsRegistry JSON snapshot
 * (stats_registry.h).
 */

#ifndef MNEMOSYNE_OBS_OBS_H_
#define MNEMOSYNE_OBS_OBS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace mnemosyne::obs {

/** Shards per counter; thread ordinals wrap beyond this. */
inline constexpr size_t kMaxThreadShards = 64;

namespace detail {
size_t nextThreadOrdinal();
/** True when environment variable @p name is set, non-empty and not "0". */
bool envTruthy(const char *name);
extern std::atomic<bool> gEnabled;
} // namespace detail

/** Process-wide ordinal of the calling thread (0, 1, 2, ...). */
inline size_t
threadOrdinal()
{
    thread_local size_t ord = detail::nextThreadOrdinal();
    return ord;
}

inline size_t threadShard() { return threadOrdinal() % kMaxThreadShards; }

/** Monotonic nanoseconds since process start (for trace timestamps and
 *  latency measurement). */
uint64_t nowNs();

/**
 * Cheap monotonic tick source for per-transaction timing: the raw TSC
 * on x86-64 (one `rdtsc`, ~10 ns — less than half a clock_gettime), a
 * nowNs() fallback elsewhere.  Convert accumulated tick deltas to
 * nanoseconds with ticksToNs() at publish time, off the hot path.
 */
inline uint64_t
tickNow()
{
#if defined(__x86_64__)
    uint32_t lo, hi;
    asm volatile("rdtsc" : "=a"(lo), "=d"(hi));
    return (uint64_t(hi) << 32) | lo;
#else
    return nowNs();
#endif
}

/** Nanoseconds represented by @p ticks tick-deltas (calibrated once per
 *  process on first use). */
uint64_t ticksToNs(uint64_t ticks);

/** Runtime toggle: seeded from MNEMOSYNE_STATS, overridable. */
inline bool
enabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}
void setEnabled(bool on);

/**
 * Always-on sharded counter (no registration, no runtime gate): the
 * building block, also used directly by layers whose stats predate the
 * observability subsystem (ScmStats, TxnStats).
 */
class ShardedCounter
{
  public:
    ShardedCounter() = default;
    ShardedCounter(const ShardedCounter &) = delete;
    ShardedCounter &operator=(const ShardedCounter &) = delete;

    void
    add(uint64_t n = 1)
    {
        slots_[threadShard()].v.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    sum() const
    {
        uint64_t s = 0;
        for (const auto &slot : slots_)
            s += slot.v.load(std::memory_order_relaxed);
        return s;
    }

    void
    reset()
    {
        for (auto &slot : slots_)
            slot.v.store(0, std::memory_order_relaxed);
    }

    /** Per-shard values (shard index == thread ordinal mod shards). */
    std::array<uint64_t, kMaxThreadShards>
    perShard() const
    {
        std::array<uint64_t, kMaxThreadShards> out;
        for (size_t i = 0; i < kMaxThreadShards; ++i)
            out[i] = slots_[i].v.load(std::memory_order_relaxed);
        return out;
    }

  private:
    struct alignas(64) Slot {
        std::atomic<uint64_t> v{0};
    };
    std::array<Slot, kMaxThreadShards> slots_{};
};

/**
 * A named counter registered with the StatsRegistry.  Increments are
 * dropped while stats are disabled, so counters reflect activity during
 * enabled windows only.  Construct as a function-local static grouped
 * per layer:
 *
 *   struct RawlObs { obs::Counter appends{"rawl.appends"}; ... };
 *   RawlObs &robs() { static RawlObs o; return o; }
 */
class Counter
{
  public:
    /** @p key must outlive the counter (string literal).  With
     *  @p per_thread_breakdown, JSON snapshots also emit the per-shard
     *  array under "<key>.per_thread". */
    explicit Counter(const char *key, bool per_thread_breakdown = false);
    ~Counter();

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void
    add(uint64_t n = 1)
    {
        if (enabled())
            impl_.add(n);
    }

    uint64_t value() const { return impl_.sum(); }
    void reset() { impl_.reset(); }
    const char *key() const { return key_; }
    bool breakdown() const { return breakdown_; }
    std::array<uint64_t, kMaxThreadShards> perShard() const
    {
        return impl_.perShard();
    }

  private:
    const char *key_;
    const bool breakdown_;
    ShardedCounter impl_;
};

} // namespace mnemosyne::obs

#endif // MNEMOSYNE_OBS_OBS_H_
