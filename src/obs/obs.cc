#include "obs/obs.h"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "obs/stats_registry.h"

namespace mnemosyne::obs {

namespace detail {

size_t
nextThreadOrdinal()
{
    static std::atomic<size_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed);
}

bool
envTruthy(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

std::atomic<bool> gEnabled{envTruthy("MNEMOSYNE_STATS")};

} // namespace detail

uint64_t
nowNs()
{
    using clk = std::chrono::steady_clock;
    static const clk::time_point start = clk::now();
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        clk::now() - start)
                        .count());
}

namespace {

/** Nanoseconds per tick in Q32 fixed point, calibrated against the
 *  steady clock over a short busy window.  On non-x86 tickNow() IS
 *  nowNs(), so the factor is exactly 1.0. */
uint64_t
calibrateNsPerTickQ32()
{
#if defined(__x86_64__)
    const uint64_t t0 = tickNow();
    const uint64_t n0 = nowNs();
    // ~200us window: long enough to swamp the clock-read cost, short
    // enough to be invisible at process start.
    while (nowNs() - n0 < 200000) {
    }
    const uint64_t dt = tickNow() - t0;
    const uint64_t dn = nowNs() - n0;
    if (dt == 0)
        return uint64_t(1) << 32;
    using u128 = unsigned __int128;
    return uint64_t((u128(dn) << 32) / dt);
#else
    return uint64_t(1) << 32;
#endif
}

} // namespace

uint64_t
ticksToNs(uint64_t ticks)
{
    static const uint64_t q32 = calibrateNsPerTickQ32();
    using u128 = unsigned __int128;
    return uint64_t((u128(ticks) * q32) >> 32);
}

void
setEnabled(bool on)
{
    detail::gEnabled.store(on, std::memory_order_relaxed);
}

Counter::Counter(const char *key, bool per_thread_breakdown)
    : key_(key), breakdown_(per_thread_breakdown)
{
    StatsRegistry::instance().add(this);
}

Counter::~Counter()
{
    StatsRegistry::instance().remove(this);
}

} // namespace mnemosyne::obs
