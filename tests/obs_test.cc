/**
 * @file
 * Tests for the observability subsystem (src/obs): sharded counters
 * under threads, HDR histogram bucketing, flight-recorder rings and
 * Chrome export, snapshot export, and the end-to-end
 * one-fence-per-durable-txn property of the tornbit RAWL (paper
 * section 4.4).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/emitter.h"
#include "obs/flight_recorder.h"
#include "obs/hdr_histogram.h"
#include "obs/obs.h"
#include "obs/phase.h"
#include "obs/stats_registry.h"
#include "runtime/runtime.h"
#include "scm/scm.h"
#include "tests/test_util.h"

namespace obs = mnemosyne::obs;
namespace mtm = mnemosyne::mtm;
namespace scm = mnemosyne::scm;
using mnemosyne::Runtime;
using mnemosyne::RuntimeConfig;
using mnemosyne::test::TempDir;
using mnemosyne::test::smallRegionConfig;

namespace {

/** Stats on for the duration of a test, restored after. */
class ScopedStats
{
  public:
    explicit ScopedStats(bool on) { obs::setEnabled(on); }
    ~ScopedStats() { obs::setEnabled(false); }
};

TEST(ShardedCounter, SingleThreadSumAndReset)
{
    obs::ShardedCounter c;
    c.add();
    c.add(41);
    EXPECT_EQ(c.sum(), 42u);
    c.reset();
    EXPECT_EQ(c.sum(), 0u);
}

TEST(ShardedCounter, ConcurrentAddsFromManyThreads)
{
    obs::ShardedCounter c;
    constexpr int kThreads = 8;
    constexpr int kAddsPerThread = 50000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&c] {
            for (int i = 0; i < kAddsPerThread; ++i)
                c.add(1);
        });
    }
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(c.sum(), uint64_t(kThreads) * kAddsPerThread);

    // The shard array carries the same total, and the increments landed
    // on more than one shard (each thread has a distinct ordinal).
    const auto shards = c.perShard();
    uint64_t total = 0;
    int nonzero = 0;
    for (uint64_t v : shards) {
        total += v;
        nonzero += (v != 0);
    }
    EXPECT_EQ(total, c.sum());
    EXPECT_GT(nonzero, 1);
}

TEST(Counter, RuntimeToggleGatesIncrements)
{
    obs::Counter c{"obs_test.toggle"};
    obs::setEnabled(false);
    c.add(5);
    EXPECT_EQ(c.value(), 0u) << "disabled counter must drop increments";
    {
        ScopedStats on(true);
        c.add(5);
        EXPECT_EQ(c.value(), 5u);
    }
    c.add(5);
    EXPECT_EQ(c.value(), 5u);
}

TEST(Counter, AppearsInRegistrySnapshotWhileAlive)
{
    std::string json;
    {
        ScopedStats on(true);
        obs::Counter c{"obs_test.lifetime"};
        c.add(7);
        json = obs::StatsRegistry::instance().jsonSnapshot();
        EXPECT_NE(json.find("\"obs_test.lifetime\":7"), std::string::npos)
            << json;
    }
    // Destroyed counters unregister.
    json = obs::StatsRegistry::instance().jsonSnapshot();
    EXPECT_EQ(json.find("obs_test.lifetime"), std::string::npos);
}

TEST(Counter, DuplicateKeysSumInSnapshot)
{
    ScopedStats on(true);
    obs::Counter a{"obs_test.dup"};
    obs::Counter b{"obs_test.dup"};
    a.add(30);
    b.add(12);
    const std::string json = obs::StatsRegistry::instance().jsonSnapshot();
    EXPECT_NE(json.find("\"obs_test.dup\":42"), std::string::npos) << json;
}

TEST(Counter, PerThreadBreakdownArray)
{
    ScopedStats on(true);
    obs::Counter c{"obs_test.sharded", /*per_thread_breakdown=*/true};
    std::thread t1([&c] { c.add(10); });
    t1.join();
    std::thread t2([&c] { c.add(20); });
    t2.join();
    EXPECT_EQ(c.value(), 30u);

    const std::string json = obs::StatsRegistry::instance().jsonSnapshot();
    const auto pos = json.find("\"obs_test.sharded.per_thread\":[");
    ASSERT_NE(pos, std::string::npos) << json;
    // The breakdown array sums to the counter value.
    const auto start = json.find('[', pos);
    const auto end = json.find(']', start);
    uint64_t total = 0, cur = 0;
    bool have = false;
    for (size_t i = start + 1; i < end; ++i) {
        if (json[i] == ',') {
            total += cur;
            cur = 0;
            have = false;
        } else {
            cur = cur * 10 + uint64_t(json[i] - '0');
            have = true;
        }
    }
    if (have)
        total += cur;
    EXPECT_EQ(total, 30u);
}

TEST(HdrHistogram, CountsSumsAndQuantiles)
{
    ScopedStats on(true);
    obs::HdrHistogram h{"obs_test.lat"};
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(1024);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.total(), 1030u);
    EXPECT_EQ(h.max(), 1024u);

    // Values below 2 * kSubCount are counted exactly; larger ones
    // report their sub-bucket's upper bound.
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.5), 2u);
    EXPECT_EQ(h.quantile(1.0),
              obs::HdrLayout::valueFor(obs::HdrLayout::indexFor(1024)));

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(HdrHistogram, SnapshotExpandsToDerivedKeys)
{
    ScopedStats on(true);
    obs::HdrHistogram h{"obs_test.hist"};
    h.record(5);
    const std::string json = obs::StatsRegistry::instance().jsonSnapshot();
    EXPECT_NE(json.find("\"obs_test.hist.count\":1"), std::string::npos);
    EXPECT_NE(json.find("\"obs_test.hist.sum\":5"), std::string::npos);
    for (const char *q : {"p50", "p90", "p95", "p99", "p999", "max"}) {
        EXPECT_NE(json.find("\"obs_test.hist." + std::string(q) + "\":5"),
                  std::string::npos)
            << q << " in " << json;
    }
    EXPECT_NE(json.find("\"obs_test.hist.overflow\":0"), std::string::npos);
}

TEST(StatsRegistry, SourcesEmitGaugesAndRemove)
{
    ScopedStats on(true);
    auto &reg = obs::StatsRegistry::instance();
    const uint64_t token = reg.addSource([](obs::Sink &sink) {
        sink.emit("obs_test.gauge", uint64_t(17));
        sink.emit("obs_test.ratio", 0.5);
    });
    std::string json = reg.jsonSnapshot();
    EXPECT_NE(json.find("\"obs_test.gauge\":17"), std::string::npos);
    EXPECT_NE(json.find("\"obs_test.ratio\":0.5"), std::string::npos);

    reg.removeSource(token);
    json = reg.jsonSnapshot();
    EXPECT_EQ(json.find("obs_test.gauge"), std::string::npos);
}

/** Minimal structural validation: balanced braces/brackets outside
 *  strings, no trailing commas — enough to catch emitter bugs without a
 *  JSON library. */
void
expectWellFormedJsonObject(const std::string &json)
{
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    int depth = 0;
    bool in_string = false;
    char prev = 0;
    for (char ch : json) {
        if (in_string) {
            if (ch == '"' && prev != '\\')
                in_string = false;
        } else if (ch == '"') {
            in_string = true;
        } else if (ch == '{' || ch == '[') {
            ++depth;
        } else if (ch == '}' || ch == ']') {
            EXPECT_NE(prev, ',') << "trailing comma in " << json;
            --depth;
            EXPECT_GE(depth, 0);
        }
        prev = ch;
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(StatsRegistry, JsonSnapshotRoundTrip)
{
    ScopedStats on(true);
    obs::Counter c{"obs_test.rt_counter", true};
    obs::HdrHistogram h{"obs_test.rt_hist"};
    c.add(3);
    h.record(9);
    auto &reg = obs::StatsRegistry::instance();
    const uint64_t token = reg.addSource([](obs::Sink &sink) {
        sink.emitArray("obs_test.rt_array", {1, 2, 3});
    });

    const std::string json = reg.jsonSnapshot();
    expectWellFormedJsonObject(json);
    EXPECT_NE(json.find("\"obs_test.rt_counter\":3"), std::string::npos);
    EXPECT_NE(json.find("\"obs_test.rt_array\":[1,2,3]"), std::string::npos);

    // The text snapshot carries the same keys.
    const std::string text = reg.textSnapshot();
    EXPECT_NE(text.find("obs_test.rt_counter"), std::string::npos);
    EXPECT_NE(text.find("obs_test.rt_hist.count"), std::string::npos);

    // resetAll zeroes registered counters and histograms.
    reg.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    reg.removeSource(token);
}

// ---------------------------------------------------------------------
// HdrHistogram: exact percentile machinery (observability v2)
// ---------------------------------------------------------------------

TEST(HdrHistogram, IndexValueRoundTripAndContinuity)
{
    using L = obs::HdrLayout;

    // Every bucket's representative maps back to that bucket, and the
    // representatives strictly increase — no gaps, no overlaps.
    uint64_t prev_rep = 0;
    for (size_t i = 0; i < L::kBucketCount; ++i) {
        const uint64_t rep = L::valueFor(i);
        EXPECT_EQ(L::indexFor(rep), i) << "bucket " << i;
        if (i > 0)
            EXPECT_GT(rep, prev_rep) << "bucket " << i;
        prev_rep = rep;
    }

    // The exact region really is exact, and the transition into the
    // first sub-bucketed range is seamless.
    for (uint64_t v = 0; v < 2 * L::kSubCount + 256; ++v) {
        const size_t i = L::indexFor(v);
        ASSERT_LT(i, L::kBucketCount);
        EXPECT_LE(v, L::valueFor(i));
        if (v < 2 * L::kSubCount)
            EXPECT_EQ(L::valueFor(i), v) << "exact region";
    }

    // Relative error of the representative is bounded by 2^-kSubBits
    // everywhere under the trackable max (sweep powers of two +/- 1).
    for (unsigned p = 1; p < L::kSubBits + 1 + L::kRanges; ++p) {
        for (int64_t d : {-1, 0, 1}) {
            const uint64_t v = (uint64_t(1) << p) + uint64_t(d);
            if (v > L::kMaxTrackable)
                continue;
            const uint64_t rep = L::valueFor(L::indexFor(v));
            ASSERT_GE(rep, v);
            EXPECT_LE(double(rep - v), double(v) / L::kSubCount + 1)
                << "v=" << v;
        }
    }
    EXPECT_LT(L::indexFor(L::kMaxTrackable), L::kBucketCount);
}

TEST(HdrHistogram, QuantilesMatchSortedReference)
{
    ScopedStats on(true);
    obs::HdrHistogram h{"obs_test.hdr_ref"};

    // Deterministic pseudo-random latencies spanning 1 ns .. ~1 ms.
    std::vector<uint64_t> vals;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 20000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        vals.push_back(1 + x % 1000000);
        h.record(vals.back());
    }
    std::sort(vals.begin(), vals.end());
    EXPECT_EQ(h.count(), vals.size());

    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const uint64_t ref =
            vals[std::min(vals.size() - 1,
                          size_t(std::ceil(q * double(vals.size()))) - 1)];
        const uint64_t got = h.quantile(q);
        // 2^-kSubBits bucket error plus one rank of slack.
        EXPECT_NEAR(double(got), double(ref), double(ref) * 0.05 + 2)
            << "q=" << q;
    }
    EXPECT_GE(h.max(), vals.back());
}

TEST(HdrHistogram, DataSubtractAndMerge)
{
    ScopedStats on(true);
    obs::HdrHistogram h{"obs_test.hdr_diff"};
    h.record(100);
    h.record(200);
    const auto d0 = h.data();
    h.record(300);
    h.record(400);
    h.record(500);
    const auto d1 = h.data();

    const auto interval = d1 - d0;
    EXPECT_EQ(interval.count, 3u);
    EXPECT_EQ(interval.sum, 1200u);
    // The interval's median is ~400, even though the lifetime median
    // is ~300 — this is the property Phase relies on.
    EXPECT_NEAR(double(interval.quantile(0.5)), 400.0, 400.0 * 0.05);

    auto merged = d0;
    merged.merge(interval);
    EXPECT_EQ(merged.count, d1.count);
    EXPECT_EQ(merged.sum, d1.sum);
    EXPECT_EQ(merged.buckets, d1.buckets);

    // A standalone Data (unregistered, ungated) buckets identically.
    obs::HdrHistogram::Data plain;
    for (uint64_t v : {100, 200, 300, 400, 500})
        plain.record(v);
    EXPECT_EQ(plain.count, d1.count);
    EXPECT_EQ(plain.sum, d1.sum);
    EXPECT_EQ(plain.max, d1.max);
    EXPECT_EQ(plain.buckets, d1.buckets);
}

TEST(HdrHistogram, OverflowBucketSaturates)
{
    ScopedStats on(true);
    obs::HdrHistogram h{"obs_test.hdr_of"};
    h.record(1000);
    h.record(obs::HdrLayout::kMaxTrackable + 1);
    h.record(UINT64_MAX);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.overflow(), 2u);
    // Quantiles landing in the overflow bucket saturate to the
    // trackable max instead of inventing a value.
    EXPECT_EQ(h.quantile(1.0), obs::HdrLayout::kMaxTrackable);
    EXPECT_LE(h.quantile(0.1), 1100u);

    const std::string json = obs::StatsRegistry::instance().jsonSnapshot();
    EXPECT_NE(json.find("\"obs_test.hdr_of.overflow\":2"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"obs_test.hdr_of.p999\":"), std::string::npos);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, OverflowBucketCountsSaturatingRecords)
{
    ScopedStats on(true);
    obs::HdrHistogram h{"obs_test.edge_of"};
    h.record(7);
    h.record(obs::HdrLayout::kMaxTrackable);     // last trackable value
    h.record(obs::HdrLayout::kMaxTrackable + 1); // first overflowing one
    h.record(UINT64_MAX);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.max(), UINT64_MAX);
    EXPECT_EQ(h.quantile(0.1), 7u);
    // kMaxTrackable itself lands in the top bucket, not the overflow.
    EXPECT_EQ(h.quantile(0.5), obs::HdrLayout::kMaxTrackable);
    // Overflowed ranks saturate instead of reporting a fake bound.
    EXPECT_EQ(h.quantile(1.0), obs::HdrLayout::kMaxTrackable);

    const std::string json = obs::StatsRegistry::instance().jsonSnapshot();
    EXPECT_NE(json.find("\"obs_test.edge_of.overflow\":2"),
              std::string::npos)
        << json;
}

// ---------------------------------------------------------------------
// Phase-scoped snapshot diffing
// ---------------------------------------------------------------------

TEST(ObsPhase, DiffsCountersAndHdrIntervals)
{
    ScopedStats on(true);
    obs::Counter c{"obs_test.phase_ctr"};
    obs::HdrHistogram h{"obs_test.phase_hdr"};
    c.add(100);
    h.record(10);

    obs::PhaseLog::instance().clear();
    obs::Phase phase("unit");
    c.add(5);
    for (int i = 0; i < 10; ++i)
        h.record(1000);
    const auto r = phase.finish();

    EXPECT_EQ(r.name, "unit");
    EXPECT_GT(r.wall_ns, 0u);
    EXPECT_EQ(r.value("obs_test.phase_ctr"), 5u)
        << "phase must see the interval delta, not the lifetime total";
    EXPECT_EQ(r.hdrCount("obs_test.phase_hdr"), 10u);
    // All interval samples were 1000: the interval median must ignore
    // the pre-phase 10 ns sample entirely.
    EXPECT_NEAR(double(r.hdrQuantile("obs_test.phase_hdr", 0.5)), 1000.0,
                1000.0 * 0.05);
    EXPECT_EQ(r.value("obs_test.absent"), 0u);

    // finish() is idempotent and the result landed in the PhaseLog.
    const auto logged = obs::PhaseLog::instance().results();
    ASSERT_EQ(logged.size(), 1u);
    EXPECT_EQ(logged[0].name, "unit");
    expectWellFormedJsonObject(logged[0].json());
    expectWellFormedJsonObject(obs::PhaseLog::instance().json());
    obs::PhaseLog::instance().clear();
}

// ---------------------------------------------------------------------
// Transaction flight recorder
// ---------------------------------------------------------------------

/** Restore recorder state after a test. */
class ScopedFlight
{
  public:
    ScopedFlight(bool on, uint32_t sample, uint32_t trap_stride = 1)
    {
        auto &f = obs::FlightRecorder::instance();
        f.clearAll();
        f.setSampleEvery(sample);
        f.setTrapStride(trap_stride); // 1: deterministic trap timing
        f.setEnabled(on);
    }
    ~ScopedFlight()
    {
        auto &f = obs::FlightRecorder::instance();
        f.setEnabled(false);
        f.setTrapStride(obs::FlightRecorder::kDefaultTrapStride);
        f.clearAll();
    }
};

TEST(ObsFlightRecorder, DisabledCostsNothingAndReturnsNull)
{
    auto &f = obs::FlightRecorder::instance();
    f.setEnabled(false);
    EXPECT_EQ(f.beginTxn(1), nullptr);
    f.endTxn(nullptr, obs::kFlightCommitted, 0); // must tolerate null
    EXPECT_TRUE(f.snapshot().empty());
}

TEST(ObsFlightRecorder, RingWrapsKeepingNewestRecords)
{
    ScopedFlight guard(true, 1);
    auto &f = obs::FlightRecorder::instance();
    f.clearThread();

    constexpr uint64_t kTxns = 600; // > default ring of 256
    for (uint64_t id = 0; id < kTxns; ++id) {
        obs::FlightFrame *fr = f.beginTxn(id);
        ASSERT_NE(fr, nullptr);
        EXPECT_TRUE(fr->sampled) << "sample_every=1 samples everything";
        fr->reads = uint32_t(id % 97);
        fr->writes = 4;
        f.endTxn(fr, obs::kFlightCommitted, id + 1);
    }

    const auto recs = f.threadSnapshot();
    ASSERT_EQ(recs.size(), obs::FlightRecorder::kDefaultRingSlots);
    // Oldest-first and contiguous: the ring kept the newest 256.
    for (size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs[i].txn_id, kTxns - recs.size() + i);
        EXPECT_EQ(recs[i].reads, uint32_t(recs[i].txn_id % 97));
        EXPECT_TRUE(recs[i].flags & obs::kFlightCommitted);
        EXPECT_TRUE(recs[i].flags & obs::kFlightSampled);
    }
    EXPECT_GE(f.published(), kTxns);

    expectWellFormedJsonObject(f.json(8));
    f.clearThread();
    EXPECT_TRUE(f.threadSnapshot().empty());
}

TEST(ObsFlightRecorder, SlowTrapCapturesTailWithoutSampling)
{
    ScopedFlight guard(true, 0); // sampling off: trap only
    auto &f = obs::FlightRecorder::instance();

    for (uint64_t id = 0; id < 64; ++id) {
        obs::FlightFrame *fr = f.beginTxn(id);
        ASSERT_NE(fr, nullptr);
        EXPECT_FALSE(fr->sampled);
        // Vary real elapsed time so the trap has a tail to find.
        if (id % 16 == 0) {
            const uint64_t t0 = obs::nowNs();
            while (obs::nowNs() - t0 < 200000) {
            }
        }
        f.endTxn(fr, obs::kFlightCommitted, id + 1);
    }

    EXPECT_TRUE(f.snapshot().empty()) << "no sampling => no ring records";
    const auto slow = f.slowest();
    ASSERT_FALSE(slow.empty());
    for (size_t i = 1; i < slow.size(); ++i)
        EXPECT_GE(slow[i - 1].total_ns, slow[i].total_ns)
            << "slowest first";
    EXPECT_TRUE(slow[0].flags & obs::kFlightSlow);
    EXPECT_GE(slow[0].total_ns, 200000u)
        << "the stalled transactions must be the ones trapped";
}

/** The trap-timing rotation: with sampling off and stride N, exactly
 *  1 in N transactions carries a valid begin timestamp.  (Sampled
 *  transactions are always timed; ScopedFlight pins stride to 1 so the
 *  other tests see every-transaction trap behavior.) */
TEST(ObsFlightRecorder, TrapStrideTimesOneInN)
{
    ScopedFlight guard(true, 0, /*trap_stride=*/4);
    auto &f = obs::FlightRecorder::instance();
    EXPECT_EQ(f.trapStride(), 4u);

    int timed = 0;
    for (uint64_t id = 0; id < 64; ++id) {
        obs::FlightFrame *fr = f.beginTxn(id);
        ASSERT_NE(fr, nullptr);
        EXPECT_FALSE(fr->sampled);
        timed += fr->timed ? 1 : 0;
        f.endTxn(fr, obs::kFlightCommitted, 0);
    }
    EXPECT_EQ(timed, 16) << "stride 4 must time exactly 1 in 4";

    f.setTrapStride(0); // timing off entirely
    for (uint64_t id = 0; id < 16; ++id) {
        obs::FlightFrame *fr = f.beginTxn(id);
        ASSERT_NE(fr, nullptr);
        EXPECT_FALSE(fr->timed);
        f.endTxn(fr, obs::kFlightCommitted, 0);
    }
}

/** Count of non-overlapping occurrences of @p needle in @p hay. */
size_t
countOf(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST(ObsFlightRecorder, ChromeJsonExport)
{
    ScopedFlight guard(true, 1);
    auto &f = obs::FlightRecorder::instance();

    obs::FlightFrame *fr = f.beginTxn(7);
    ASSERT_NE(fr, nullptr);
    fr->fences = 1;
    fr->flushes = 3;
    f.endTxn(fr, obs::kFlightCommitted, 11);
    fr = f.beginTxn(8);
    ASSERT_NE(fr, nullptr);
    f.endTxn(fr, obs::kFlightAborted, 0);
    // Sampling off: this one lands in the slow trap only.
    f.setSampleEvery(0);
    fr = f.beginTxn(9);
    ASSERT_NE(fr, nullptr);
    ASSERT_FALSE(fr->sampled);
    f.endTxn(fr, obs::kFlightCommitted, 12);

    const std::string json = f.chromeJson();
    expectWellFormedJsonObject(json);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"txn_commit\",\"cat\":\"mtm\","
                        "\"ph\":\"X\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"name\":\"txn_abort\""), std::string::npos);
    // Counts and span durations ride along as args.
    EXPECT_NE(json.find("\"txn\":7,"), std::string::npos);
    EXPECT_NE(json.find("\"commit_ts\":11,"), std::string::npos);
    EXPECT_NE(json.find("\"fences\":1,\"flushes\":3,"), std::string::npos);
    EXPECT_NE(json.find("\"log_fence\":"), std::string::npos);
    // One event per transaction: the trap holds all three, the rings
    // the first two, and nothing is exported twice.
    EXPECT_EQ(countOf(json, "\"ph\":\"X\""), 3u) << json;
    EXPECT_EQ(countOf(json, "\"txn\":7,"), 1u);
    EXPECT_EQ(countOf(json, "\"txn\":9,"), 1u);
}

TEST(ObsFlightRecorder, ChromeExportEmitsProcessAndThreadNames)
{
    ScopedFlight guard(true, 1);
    auto &f = obs::FlightRecorder::instance();
    obs::setCurrentThreadName("obs-test-main");
    f.endTxn(f.beginTxn(1), obs::kFlightCommitted, 2);
    uint32_t unnamed = 0;
    std::thread t([&] {
        unnamed = uint32_t(obs::threadOrdinal());
        f.endTxn(f.beginTxn(3), obs::kFlightCommitted, 4);
    });
    t.join();

    const std::string json = f.chromeJson();
    expectWellFormedJsonObject(json);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("obs-test-main"), std::string::npos)
        << "registered thread name must appear in the metadata";
    EXPECT_NE(json.find("\"thread " + std::to_string(unnamed) + "\""),
              std::string::npos)
        << "threads without a name export under their ordinal";
}

RuntimeConfig
rtCfg(const std::string &dir)
{
    RuntimeConfig rc;
    rc.use_current_scm_context = true;
    rc.region = smallRegionConfig(dir);
    rc.small_heap_bytes = 4 << 20;
    rc.big_heap_bytes = 4 << 20;
    rc.static_region_bytes = 1 << 20;
    rc.txn.truncation = mtm::Truncation::kAsync;
    return rc;
}

/** End-to-end: a real runtime with sampling on — records carry span
 *  detail that attributes commit latency to log/fence/write-back. */
TEST(ObsFlightRecorder, RuntimeTxnsProduceCausalSpans)
{
    ScopedFlight guard(true, 1);
    TempDir dir;
    scm::ScmContext ctx{scm::ScmConfig{}};
    scm::ScopedCtx guard2(ctx);
    Runtime rt(rtCfg(dir.path()));

    uint64_t *cell = static_cast<uint64_t *>(
        rt.regions().pstaticVar("obs_fcell", sizeof(uint64_t), nullptr));
    obs::FlightRecorder::instance().clearThread();
    for (uint64_t i = 0; i < 20; ++i)
        rt.atomic([&](mtm::Txn &tx) {
            tx.writeT<uint64_t>(cell, tx.readT<uint64_t>(cell) + 1);
        });

    const auto recs = obs::FlightRecorder::instance().threadSnapshot();
    ASSERT_GE(recs.size(), 20u);
    const auto &r = recs.back();
    EXPECT_TRUE(r.flags & obs::kFlightCommitted);
    EXPECT_GT(r.commit_ts, 0u);
    EXPECT_GE(r.reads, 1u);
    EXPECT_GE(r.writes, 1u);
    EXPECT_GE(r.redo_words, 2u) << "one (addr,val) pair at least";
    EXPECT_GT(r.log_bytes, 0u);
    EXPECT_GE(r.fences, 1u) << "the one-fence durability point";
    // Span attribution: the log append and fence phases were timed.
    EXPECT_GT(r.span_ns[size_t(obs::Span::kLogStage)] +
                  r.span_ns[size_t(obs::Span::kLogAppend)] +
                  r.span_ns[size_t(obs::Span::kLogFence)] +
                  r.span_ns[size_t(obs::Span::kWriteBack)],
              0u);
    EXPECT_LE(r.span_ns[size_t(obs::Span::kLogFence)], r.total_ns);

    // Read-only transactions are flagged and skip the log entirely.
    rt.atomic([&](mtm::Txn &tx) { (void)tx.readT<uint64_t>(cell); });
    const auto recs2 = obs::FlightRecorder::instance().threadSnapshot();
    const auto &ro = recs2.back();
    EXPECT_TRUE(ro.flags & obs::kFlightReadOnly);
    EXPECT_EQ(ro.log_bytes, 0u);
    rt.txns().drainTruncation();
}

// ---------------------------------------------------------------------
// Concurrency: snapshots race writers (run under TSan in CI)
// ---------------------------------------------------------------------

TEST(ObsConcurrency, RegistrySnapshotsRaceCountersAndHdrs)
{
    ScopedStats on(true);
    obs::Counter c{"obs_test.cc_ctr", /*per_thread_breakdown=*/true};
    obs::HdrHistogram h{"obs_test.cc_hdr"};

    constexpr int kWriters = 4;
    constexpr int kOps = 20000;
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&] {
            for (int i = 0; i < kOps; ++i) {
                c.add(1);
                h.record(uint64_t(1 + i % 5000));
            }
        });
    }
    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            const std::string json =
                obs::StatsRegistry::instance().jsonSnapshot();
            ASSERT_FALSE(json.empty());
            const auto raw = obs::StatsRegistry::instance().rawSnapshot();
            // Raw snapshots must be internally coherent: a bucket sum
            // never exceeds the recorded count at snapshot time.
            const auto it = raw.hdrs.find("obs_test.cc_hdr");
            if (it != raw.hdrs.end()) {
                uint64_t bucket_total = 0;
                for (uint64_t b : it->second.buckets)
                    bucket_total += b;
                EXPECT_LE(bucket_total,
                          uint64_t(kWriters) * kOps + 1);
            }
        }
    });
    for (auto &w : writers)
        w.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(c.value(), uint64_t(kWriters) * kOps);
    EXPECT_EQ(h.count(), uint64_t(kWriters) * kOps);
}

TEST(ObsConcurrency, FlightSnapshotsRaceWritersDifferentially)
{
    ScopedFlight guard(true, 1);
    auto &f = obs::FlightRecorder::instance();

    constexpr int kWriters = 4;
    constexpr uint64_t kTxnsPerWriter = 4000;

    // Mutex-guarded shadow of everything ever published: any record a
    // concurrent snapshot returns must match a shadow entry bit-for-bit
    // in its derived fields — a torn (non-atomic) slot read would break
    // the txn_id -> field relationship.
    std::mutex shadowMu;
    std::set<uint64_t> shadow;

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&, t] {
            for (uint64_t i = 0; i < kTxnsPerWriter; ++i) {
                const uint64_t id = uint64_t(t) * kTxnsPerWriter + i + 1;
                obs::FlightFrame *fr = f.beginTxn(id);
                ASSERT_NE(fr, nullptr);
                fr->reads = uint32_t(id % 7919);
                fr->writes = uint32_t((id % 7919) * 2);
                fr->redo_words = uint32_t((id % 7919) * 3);
                {
                    std::lock_guard<std::mutex> g(shadowMu);
                    shadow.insert(id);
                }
                f.endTxn(fr, obs::kFlightCommitted, id);
            }
        });
    }
    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            for (const auto &r : f.snapshot()) {
                // Differential check vs the shadow: the id was really
                // published, and the fields belong to that id.
                {
                    std::lock_guard<std::mutex> g(shadowMu);
                    EXPECT_TRUE(shadow.count(r.txn_id))
                        << "snapshot returned an id never published";
                }
                EXPECT_EQ(r.reads, uint32_t(r.txn_id % 7919));
                EXPECT_EQ(r.writes, uint32_t((r.txn_id % 7919) * 2));
                EXPECT_EQ(r.redo_words, uint32_t((r.txn_id % 7919) * 3));
                EXPECT_EQ(r.commit_ts, r.txn_id);
            }
        }
    });
    for (auto &w : writers)
        w.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_GE(f.published(), uint64_t(kWriters) * kTxnsPerWriter);
    // Post-join: every surviving record still satisfies the invariant.
    for (const auto &r : f.snapshot())
        EXPECT_EQ(r.writes, uint32_t((r.txn_id % 7919) * 2));
}

// ---------------------------------------------------------------------
// Live export: the stats emitter endpoint
// ---------------------------------------------------------------------

namespace {

int
connectLoopback(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
roundTrip(int fd, const std::string &cmd, std::string &reply)
{
    const std::string line = cmd + "\n";
    if (::send(fd, line.data(), line.size(), 0) != ssize_t(line.size()))
        return false;
    reply.clear();
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return false;
        reply.append(chunk, size_t(n));
        const size_t nl = reply.find('\n');
        if (nl != std::string::npos) {
            reply.resize(nl);
            return true;
        }
    }
}

} // namespace

TEST(ObsEmitter, TcpLineProtocolRoundTrip)
{
    ScopedStats on(true);
    obs::Counter c{"obs_test.emitter_ctr"};
    c.add(42);

    auto &em = obs::StatsEmitter::instance();
    ASSERT_TRUE(em.start(0)) << "ephemeral bind must succeed";
    ASSERT_NE(em.port(), 0);

    const int fd = connectLoopback(em.port());
    ASSERT_GE(fd, 0);

    std::string reply;
    ASSERT_TRUE(roundTrip(fd, "ping", reply));
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;

    ASSERT_TRUE(roundTrip(fd, "stats", reply));
    expectWellFormedJsonObject(reply);
    EXPECT_NE(reply.find("\"obs_test.emitter_ctr\":42"), std::string::npos);

    ASSERT_TRUE(roundTrip(fd, "flight 4", reply));
    expectWellFormedJsonObject(reply);
    EXPECT_NE(reply.find("\"records\":["), std::string::npos);

    ASSERT_TRUE(roundTrip(fd, "phases", reply));
    expectWellFormedJsonObject(reply);

    ASSERT_TRUE(roundTrip(fd, "bogus", reply));
    EXPECT_NE(reply.find("\"error\""), std::string::npos);

    ASSERT_TRUE(roundTrip(fd, "quit", reply));
    ::close(fd);
    em.stop();
    EXPECT_FALSE(em.running());
}

TEST(ObsEmitter, DropsClientThatNeverSendsNewline)
{
    auto &em = obs::StatsEmitter::instance();
    ASSERT_TRUE(em.start(0));
    const int fd = connectLoopback(em.port());
    ASSERT_GE(fd, 0);
    // Timeouts turn an emitter that keeps the connection open into a
    // failure instead of a hang.
    timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    const std::string junk(1 << 20, 'x');
    size_t sent = 0;
    while (sent < junk.size()) {
        const ssize_t n = ::send(fd, junk.data() + sent, junk.size() - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0)
            break; // the emitter hung up mid-send
        sent += size_t(n);
    }
    char ch;
    const ssize_t n = ::recv(fd, &ch, 1, 0);
    EXPECT_TRUE(n == 0 || (n < 0 && errno == ECONNRESET))
        << "connection still open: recv=" << n << " errno=" << errno;
    ::close(fd);

    // The emitter itself stays up for the next client.
    const int fd2 = connectLoopback(em.port());
    ASSERT_GE(fd2, 0);
    std::string reply;
    ASSERT_TRUE(roundTrip(fd2, "ping", reply));
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    ::close(fd2);
    em.stop();
}

/** The paper's tornbit claim (section 4.4): making a small transaction
 *  durable costs exactly ONE fence — the RAWL append needs no separate
 *  commit-record fence.  Synchronous truncation would add its own fence
 *  at commit, so the claim is checked with truncation off the critical
 *  path (paused async truncator). */
TEST(ObsIntegration, OneFencePerDurableTxnOnRawlPath)
{
    TempDir dir;
    scm::ScmContext ctx{scm::ScmConfig{}};
    scm::ScopedCtx guard(ctx);
    Runtime rt(rtCfg(dir.path()));

    uint64_t *cell = static_cast<uint64_t *>(
        rt.regions().pstaticVar("obs_cell", sizeof(uint64_t), nullptr));
    rt.txns().pauseTruncation();

    // Warm-up: first txn on this thread acquires a log slot (which
    // fences once on its own).
    rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(cell, 1); });

    const uint64_t fences0 = ctx.statsSnapshot().fences;
    rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(cell, 2); });
    const uint64_t fences1 = ctx.statsSnapshot().fences;
    EXPECT_EQ(fences1 - fences0, 1u)
        << "a 1-word durable txn must cost exactly one fence";

    // Ten more transactions: still one fence each.
    for (uint64_t i = 0; i < 10; ++i)
        rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(cell, i); });
    EXPECT_EQ(ctx.statsSnapshot().fences - fences1, 10u);

    rt.txns().resumeTruncation();
    rt.txns().drainTruncation();
}

/** TxnStats flows into the registry with per-thread breakdowns. */
TEST(ObsIntegration, TxnStatsFoldedIntoRegistry)
{
    ScopedStats on(true);
    TempDir dir;
    scm::ScmContext ctx{scm::ScmConfig{}};
    scm::ScopedCtx guard(ctx);
    Runtime rt(rtCfg(dir.path()));

    uint64_t *cell = static_cast<uint64_t *>(
        rt.regions().pstaticVar("obs_cell2", sizeof(uint64_t), nullptr));
    const uint64_t commits0 = rt.txns().stats().commits;
    for (uint64_t i = 0; i < 5; ++i)
        rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(cell, i); });
    EXPECT_EQ(rt.txns().stats().commits - commits0, 5u);

    const std::string json = obs::StatsRegistry::instance().jsonSnapshot();
    expectWellFormedJsonObject(json);
    EXPECT_NE(json.find("\"mtm.commits\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"mtm.commits.per_thread\":["), std::string::npos);
    EXPECT_NE(json.find("\"scm.fences\":"), std::string::npos);
    EXPECT_NE(json.find("\"reinc.replayed_txns\":"), std::string::npos);
    rt.txns().drainTruncation();
    // Quiet the Runtime destructor's shutdown dump.
    obs::setEnabled(false);
}

} // namespace
