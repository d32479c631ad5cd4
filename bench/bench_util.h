/**
 * @file
 * Shared infrastructure for the benchmark binaries: one per paper
 * table/figure (see DESIGN.md section 4).  Benchmarks run with the
 * paper's default emulation parameters — 150 ns extra write latency,
 * 4 GB/s write bandwidth, TSC spin delays — unless a specific
 * experiment varies them.
 */

#ifndef MNEMOSYNE_BENCH_BENCH_UTIL_H_
#define MNEMOSYNE_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "obs/obs.h"
#include "obs/phase.h"
#include "obs/stats_registry.h"
#include "pcmdisk/pcmdisk.h"
#include "runtime/runtime.h"
#include "scm/scm.h"

namespace mnemosyne::bench {

/** A self-deleting scratch directory for persistent-region backing. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_("/tmp/mnemosyne_bench_" + tag)
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** SCM emulator configured like the paper's test platform. */
inline scm::ScmConfig
paperScmConfig(uint64_t write_latency_ns = 150, bool spin = true)
{
    scm::ScmConfig cfg;
    cfg.latency_mode = spin ? scm::LatencyMode::kSpin
                            : scm::LatencyMode::kNone;
    cfg.write_latency_ns = write_latency_ns;
    cfg.write_bandwidth_bytes_per_us = 4096; // 4 GB/s
    // Long-running performance measurement: no failure journal.
    cfg.failure_tracking = false;
    return cfg;
}

/** PCM-disk configured like the paper's (plus kernel-stack overhead). */
inline pcmdisk::PcmDiskConfig
paperDiskConfig(uint64_t write_latency_ns = 150)
{
    pcmdisk::PcmDiskConfig cfg;
    cfg.capacity_bytes = size_t(512) << 20;
    cfg.latency_mode = scm::LatencyMode::kSpin;
    cfg.write_latency_ns = write_latency_ns;
    cfg.write_bandwidth_bytes_per_us = 4096;
    cfg.torn_block_writes = false;
    return cfg;
}

/**
 * Runtime sized like the paper's experiments.  It borrows the published
 * SCM context (scm::ctx()), so a benchmark publishes its emulator first
 * — which also makes the stats line's "scm.*" keys report it.
 */
inline RuntimeConfig
paperRuntimeConfig(const std::string &dir,
                   mtm::Truncation trunc = mtm::Truncation::kSync,
                   size_t heap_mb = 256)
{
    RuntimeConfig cfg;
    cfg.scm_context = &scm::ctx();
    cfg.region.backing_dir = dir;
    cfg.region.scm_capacity = size_t(heap_mb + 320) << 20;
    cfg.region.va_reserve = size_t(4) << 30;
    cfg.small_heap_bytes = size_t(heap_mb) << 20;
    cfg.big_heap_bytes = size_t(64) << 20;
    cfg.txn.truncation = trunc;
    cfg.txn.log_slots = 32;
    cfg.txn.log_slot_bytes = 4 << 20;
    return cfg;
}

/**
 * CPUs actually usable by this process — the affinity mask when the
 * kernel exposes one (containers often restrict it), else the online
 * CPU count.  Never returns 0.  Thread-scaling benchmarks use this to
 * annotate (or skip) cells where thread count exceeds real parallelism
 * instead of hard-coding assumptions about the host.
 */
inline unsigned
hwThreads()
{
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return unsigned(n);
    }
#endif
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

/**
 * One-line provenance note for thread-scaling tables: states the
 * detected CPU count and, when @p max_threads oversubscribes it, warns
 * that those cells measure time-slicing, not parallelism.
 */
inline std::string
scalingNote(int max_threads)
{
    const unsigned hw = hwThreads();
    std::string s = "host: " + std::to_string(hw) + " CPU(s) available";
    if (unsigned(max_threads) > hw) {
        s += "; cells marked * run more threads than CPUs — scaling "
             "muted by time-slicing";
    }
    return s;
}

/** Wall-clock stopwatch in nanoseconds. */
class Timer
{
  public:
    Timer() : t0_(std::chrono::steady_clock::now()) {}

    uint64_t
    ns() const
    {
        return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0_)
                            .count());
    }

    double us() const { return double(ns()) / 1e3; }
    double s() const { return double(ns()) / 1e9; }

  private:
    std::chrono::steady_clock::time_point t0_;
};

inline void
header(const char *title)
{
    std::printf("\n================================================================\n");
    std::printf("%s\n", title);
    std::printf("================================================================\n");
}

inline void
paperNote(const char *note)
{
    std::printf("paper: %s\n\n", note);
}

/**
 * Pull one numeric value out of a StatsRegistry jsonSnapshot() line.
 * Returns 0 when the key is absent (e.g. a layer not linked in).  Used
 * by benchmarks that derive per-operation rates from registered
 * counters (which have no C++ lookup API by design).
 */
inline double
statValue(const std::string &json, const std::string &key)
{
    const std::string pat = "\"" + key + "\":";
    const auto p = json.find(pat);
    if (p == std::string::npos)
        return 0.0;
    return std::atof(json.c_str() + p + pat.size());
}

/**
 * Stats gate on for a scope, restored after.  Registered counters drop
 * increments while MNEMOSYNE_STATS is off, so a pass whose counters a
 * benchmark reads runs inside one; timed loops stay outside, so they
 * measure the same thing with or without MNEMOSYNE_STATS.
 */
class ScopedStatsOn
{
  public:
    ScopedStatsOn() : was_(obs::enabled()) { obs::setEnabled(true); }
    ~ScopedStatsOn() { obs::setEnabled(was_); }

    ScopedStatsOn(const ScopedStatsOn &) = delete;
    ScopedStatsOn &operator=(const ScopedStatsOn &) = delete;

  private:
    bool was_;
};

/**
 * Emit one machine-readable result line when MNEMOSYNE_STATS is on:
 *
 *   {"bench":"<name>","metrics":{...},"stats":{"scm.fences":31,...}}
 *
 * "metrics" carries the benchmark's headline numbers (ops/sec, MB/s);
 * "stats" is the full StatsRegistry snapshot, so every BENCH_*.json
 * trajectory is self-describing about the primitive counts behind it.
 */
inline void
emitStatsJson(
    const char *bench_name,
    const std::vector<std::pair<std::string, double>> &metrics = {})
{
    if (!obs::enabled())
        return;
    std::string line = "{\"bench\":\"";
    line += bench_name;
    line += "\",\"metrics\":{";
    bool first = true;
    for (const auto &[key, value] : metrics) {
        if (!first)
            line += ',';
        first = false;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key.c_str(), value);
        line += buf;
    }
    line += "},\"stats\":";
    line += obs::StatsRegistry::instance().jsonSnapshot();
    line += '}';
    std::printf("%s\n", line.c_str());
}

/**
 * One formatted percentile row for an HDR histogram key out of a
 * phase diff — exact *interval* percentiles, since Phase subtracts raw
 * bucket arrays, not derived quantiles.  Empty string when the
 * interval recorded nothing (key absent, sampling missed, stats off).
 */
inline std::string
hdrRow(const obs::PhaseResult &r, const std::string &key)
{
    const uint64_t n = r.hdrCount(key);
    if (n == 0)
        return {};
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "p50=%llu  p90=%llu  p95=%llu  p99=%llu  p999=%llu  "
                  "(n=%llu)",
                  (unsigned long long)r.hdrQuantile(key, 0.50),
                  (unsigned long long)r.hdrQuantile(key, 0.90),
                  (unsigned long long)r.hdrQuantile(key, 0.95),
                  (unsigned long long)r.hdrQuantile(key, 0.99),
                  (unsigned long long)r.hdrQuantile(key, 0.999),
                  (unsigned long long)n);
    return buf;
}

/** Append "<prefix>_p50/_p95/_p99" metrics for an HDR key when the
 *  phase interval recorded samples. */
inline void
appendHdrMetrics(std::vector<std::pair<std::string, double>> &metrics,
                 const obs::PhaseResult &r, const std::string &key,
                 const std::string &prefix)
{
    if (r.hdrCount(key) == 0)
        return;
    metrics.emplace_back(prefix + "_p50",
                         double(r.hdrQuantile(key, 0.50)));
    metrics.emplace_back(prefix + "_p95",
                         double(r.hdrQuantile(key, 0.95)));
    metrics.emplace_back(prefix + "_p99",
                         double(r.hdrQuantile(key, 0.99)));
}

} // namespace mnemosyne::bench

#endif // MNEMOSYNE_BENCH_BENCH_UTIL_H_
