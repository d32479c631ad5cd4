/**
 * @file
 * StatsRegistry: the single place every layer's observability data
 * meets, and the JSON/text exporter behind the MNEMOSYNE_STATS toggle.
 *
 * Two kinds of inputs:
 *
 *  - Counters (obs.h) and HdrHistograms (hdr_histogram.h) self-register
 *    on construction and unregister on destruction.  Layers keep them
 *    as function-local statics, so a binary only carries the keys of
 *    the layers it links.
 *  - Sources: callbacks registered by stateful objects (ScmContext,
 *    RegionManager, PHeap, TxnManager, Runtime) that emit gauges and
 *    pre-existing stats structs into a Sink at snapshot time.  A source
 *    may emit nothing (e.g. an ScmContext that is not current).
 *
 * Snapshot key space is flat and dot-qualified ("scm.fences",
 * "mtm.commits"); duplicate keys (two live instances of a layer) sum.
 * The JSON snapshot is a single-line object sorted by key:
 *
 *   {"mtm.commits":12,"mtm.commits.per_thread":[8,4],"scm.fences":31,...}
 *
 * HdrHistograms expand to <key>.count/.sum/.p50/.p90/.p95/.p99/.p999/
 * .max/.overflow.  Counters created with per-thread breakdown add
 * "<key>.per_thread" arrays (indexed by thread ordinal mod
 * kMaxThreadShards, trailing zeros trimmed).
 *
 * rawSnapshot() is the diffable form: counter/source scalars plus full
 * HdrHistogram bucket arrays, so two captures subtract into *interval*
 * stats with exact interval percentiles (obs::Phase builds on it).
 */

#ifndef MNEMOSYNE_OBS_STATS_REGISTRY_H_
#define MNEMOSYNE_OBS_STATS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/hdr_histogram.h"
#include "obs/obs.h"

namespace mnemosyne::obs {

/** Where sources write their key/value pairs during a snapshot. */
class Sink
{
  public:
    void emit(const std::string &key, uint64_t v);
    void emit(const std::string &key, double v);
    void emitArray(const std::string &key, const std::vector<uint64_t> &v);

    struct Value {
        bool is_float = false;
        uint64_t u = 0;
        double d = 0.0;
    };

  private:
    friend class StatsRegistry;
    std::map<std::string, Value> scalars_;
    std::map<std::string, std::vector<uint64_t>> arrays_;
};

class StatsRegistry
{
  public:
    using Source = std::function<void(Sink &)>;

    static StatsRegistry &instance();

    /** Register a stateful layer's gauge callback; returns a token for
     *  removeSource(). */
    uint64_t addSource(Source fn);
    void removeSource(uint64_t token);

    /** One-line JSON object over all counters, histograms, sources. */
    std::string jsonSnapshot() const;

    /** Human-readable "key  value" lines, sorted. */
    std::string textSnapshot() const;

    /**
     * Diffable snapshot: raw scalar values (counters, source gauges)
     * plus full HdrHistogram bucket arrays summed by key.  Two
     * RawSnapshots subtract bucket-wise, so an interval's percentiles
     * are exact — percentiles of endpoint snapshots do not diff, bucket
     * counts do.
     */
    struct RawSnapshot {
        uint64_t when_ns = 0;
        std::map<std::string, Sink::Value> scalars;
        std::map<std::string, HdrHistogram::Data> hdrs;
    };
    RawSnapshot rawSnapshot() const;

    /** Reset every registered counter and histogram (sources keep their
     *  own state). */
    void resetAll();

    // Called by Counter / HdrHistogram constructors; not for direct use.
    void add(Counter *c);
    void remove(Counter *c);
    void add(HdrHistogram *h);
    void remove(HdrHistogram *h);

  private:
    StatsRegistry() = default;

    /** Copies of the registration lists, so snapshot work (and source
     *  callbacks, which may construct a counter) runs unlocked. */
    struct Members {
        std::vector<Counter *> counters;
        std::vector<HdrHistogram *> hdrs;
        std::vector<Source> sources;
    };
    Members members() const;
    void collect(Sink &sink) const;

    mutable std::mutex mu_;
    std::vector<Counter *> counters_;
    std::vector<HdrHistogram *> hdrs_;
    std::map<uint64_t, Source> sources_;
    uint64_t nextToken_ = 1;
};

/**
 * Shutdown hook called by Runtime's destructor: when MNEMOSYNE_STATS is
 * on, writes the JSON snapshot to MNEMOSYNE_STATS_FILE (append) or
 * stderr; when MNEMOSYNE_TRACE_FILE is set, writes the flight
 * recorder's Chrome trace JSON there.
 */
void shutdownDump();

} // namespace mnemosyne::obs

#endif // MNEMOSYNE_OBS_STATS_REGISTRY_H_
