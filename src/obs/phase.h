/**
 * @file
 * Phase-scoped stats diffing: bracket a region of interest with a
 * RAII `Phase` and get the *interval's* counters and exact interval
 * percentiles, not the process-lifetime aggregates.
 *
 *   {
 *       obs::Phase phase("load");
 *       runLoad();
 *       obs::PhaseResult r = phase.finish();
 *       // r.value("mtm.commits"), r.hdrQuantile("mtm.commit_ns", 0.99)
 *   }
 *
 * A Phase captures StatsRegistry::rawSnapshot() at construction and at
 * finish()/destruction; the diff is computed bucket-wise on the raw
 * HdrHistogram bucket arrays (percentiles of endpoint snapshots do not
 * subtract — bucket counts do).  Finished phases are also appended to
 * the global PhaseLog, which benches and the crash sweeper dump as
 * JSON ("phases" command on the stats emitter).
 */

#ifndef MNEMOSYNE_OBS_PHASE_H_
#define MNEMOSYNE_OBS_PHASE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/hdr_histogram.h"
#include "obs/stats_registry.h"

namespace mnemosyne::obs {

/** The diff between a phase's two endpoint snapshots. */
struct PhaseResult {
    std::string name;
    uint64_t wall_ns = 0;
    std::map<std::string, Sink::Value> scalars; ///< Saturating deltas.
    std::map<std::string, HdrHistogram::Data> hdrs; ///< Interval data.

    /** Scalar delta for @p key (0 when absent). */
    uint64_t value(const std::string &key) const;
    double valueF(const std::string &key) const;

    /** Interval quantile of HdrHistogram @p key (0 when absent). */
    uint64_t hdrQuantile(const std::string &key, double q) const;
    uint64_t hdrCount(const std::string &key) const;

    /** One-line JSON: {"name":...,"wall_ns":...,"stats":{...}} with
     *  hdr keys expanded to .count/.sum/.p50/.p90/.p95/.p99/.p999. */
    std::string json() const;
};

/** Process-global log of finished phases (mutex-guarded, cold path). */
class PhaseLog
{
  public:
    static PhaseLog &instance();

    void record(PhaseResult r);
    std::vector<PhaseResult> results() const;
    std::string json() const; ///< {"phases":[...]}
    void clear();

  private:
    PhaseLog() = default;
    mutable std::mutex mu_;
    std::vector<PhaseResult> results_;
};

class Phase
{
  public:
    /** Captures the begin snapshot (cold: one registry walk). */
    explicit Phase(std::string name);

    /** Captures the end snapshot, records the diff into the PhaseLog
     *  and returns it.  Idempotent; the destructor calls it if the
     *  caller did not. */
    PhaseResult finish();

    ~Phase();

    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

  private:
    std::string name_;
    StatsRegistry::RawSnapshot begin_;
    bool finished_ = false;
};

/** Diff two raw snapshots (end - begin) under @p name. */
PhaseResult diffSnapshots(std::string name,
                          const StatsRegistry::RawSnapshot &begin,
                          const StatsRegistry::RawSnapshot &end);

} // namespace mnemosyne::obs

#endif // MNEMOSYNE_OBS_PHASE_H_
