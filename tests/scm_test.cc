/**
 * @file
 * Unit tests for the SCM emulator: primitive semantics, the latency
 * model, and the crash/failure model that underpins every recovery test
 * in the suite.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <thread>
#include <vector>

#include "scm/scm.h"

namespace scm = mnemosyne::scm;
using scm::CrashPersistMode;
using scm::LatencyMode;
using scm::ScmConfig;
using scm::ScmContext;

namespace {

ScmConfig
trackedCfg(CrashPersistMode mode = CrashPersistMode::kDropUnfenced,
           uint64_t seed = 0)
{
    ScmConfig cfg;
    cfg.latency_mode = LatencyMode::kNone;
    cfg.crash_mode = mode;
    cfg.crash_seed = seed;
    return cfg;
}

} // namespace

TEST(Scm, StoreIsVisibleImmediately)
{
    ScmContext c(trackedCfg());
    uint64_t word = 0;
    c.storeT<uint64_t>(&word, 42);
    EXPECT_EQ(c.loadT<uint64_t>(&word), 42u);
    EXPECT_EQ(word, 42u);
}

TEST(Scm, UnfencedStoreIsLostOnCrash)
{
    ScmContext c(trackedCfg());
    uint64_t word = 7;
    c.storeT<uint64_t>(&word, 42);
    c.crash();
    EXPECT_EQ(word, 7u);
}

TEST(Scm, StoreFlushWithoutFenceIsLostUnderStrictMode)
{
    ScmContext c(trackedCfg());
    uint64_t word = 7;
    c.storeT<uint64_t>(&word, 42);
    c.flush(&word);
    c.crash();
    EXPECT_EQ(word, 7u) << "flush without fence is not durable";
}

TEST(Scm, StoreFlushFenceIsDurable)
{
    ScmContext c(trackedCfg());
    uint64_t word = 7;
    c.storeT<uint64_t>(&word, 42);
    c.flush(&word);
    c.fence();
    c.crash();
    EXPECT_EQ(word, 42u);
}

TEST(Scm, FenceWithoutFlushDoesNotPersistCachedStore)
{
    // mfence drains write-combining buffers but does NOT write back the
    // cache: a plain store survives a fence only if its line was flushed.
    ScmContext c(trackedCfg());
    uint64_t word = 7;
    c.storeT<uint64_t>(&word, 42);
    c.fence();
    c.crash();
    EXPECT_EQ(word, 7u);
}

TEST(Scm, WtstoreFenceIsDurable)
{
    ScmContext c(trackedCfg());
    uint64_t word = 7;
    c.wtstoreT<uint64_t>(&word, 42);
    c.fence();
    c.crash();
    EXPECT_EQ(word, 42u);
}

TEST(Scm, WtstoreWithoutFenceIsLostUnderStrictMode)
{
    ScmContext c(trackedCfg());
    uint64_t word = 7;
    c.wtstoreT<uint64_t>(&word, 42);
    c.crash();
    EXPECT_EQ(word, 7u);
}

TEST(Scm, KeepIssuedModePersistsFlushedButNotCachedWrites)
{
    ScmContext c(trackedCfg(CrashPersistMode::kKeepIssued));
    uint64_t flushed = 0, cached = 0, streamed = 0;
    c.storeT<uint64_t>(&flushed, 1);
    c.flush(&flushed);
    c.storeT<uint64_t>(&cached, 2);
    c.wtstoreT<uint64_t>(&streamed, 3);
    c.crash();
    EXPECT_EQ(flushed, 1u);
    EXPECT_EQ(cached, 0u);
    EXPECT_EQ(streamed, 3u);
}

TEST(Scm, OverlappingWritesRevertInOrder)
{
    ScmContext c(trackedCfg());
    uint64_t word = 1;
    c.storeT<uint64_t>(&word, 2);
    c.storeT<uint64_t>(&word, 3);
    c.storeT<uint64_t>(&word, 4);
    EXPECT_EQ(word, 4u);
    c.crash();
    EXPECT_EQ(word, 1u);
}

TEST(Scm, CrashRevertsOnlyUndurableSuffix)
{
    ScmContext c(trackedCfg());
    uint64_t word = 1;
    c.storeT<uint64_t>(&word, 2);
    c.flush(&word);
    c.fence();            // 2 is durable
    c.storeT<uint64_t>(&word, 3);
    c.crash();
    EXPECT_EQ(word, 2u);
}

TEST(Scm, RandomSubsetRespectsEightByteAtomicity)
{
    // SCM writes are atomic at 64-bit granularity (paper section 2): a
    // single 8-byte aligned wtstore either fully survives or is fully
    // lost, for every seed.
    alignas(8) uint64_t word;
    for (uint64_t seed = 0; seed < 64; ++seed) {
        ScmContext c(trackedCfg(CrashPersistMode::kRandomSubset, seed));
        word = 0x1111111111111111ULL;
        c.wtstoreT<uint64_t>(&word, 0x2222222222222222ULL);
        c.crash();
        EXPECT_TRUE(word == 0x1111111111111111ULL ||
                    word == 0x2222222222222222ULL)
            << "seed " << seed << " tore an atomic write: " << std::hex
            << word;
    }
}

TEST(Scm, RandomSubsetCanTearMultiWordWrites)
{
    // A multi-word streaming write has no atomicity guarantee: some
    // seed must produce a partial result (this is what the tornbit log
    // exists to detect).
    alignas(8) std::array<uint64_t, 8> buf;
    const std::array<uint64_t, 8> ones = {1, 1, 1, 1, 1, 1, 1, 1};
    bool saw_partial = false;
    for (uint64_t seed = 0; seed < 64 && !saw_partial; ++seed) {
        ScmContext c(trackedCfg(CrashPersistMode::kRandomSubset, seed));
        buf.fill(0);
        c.wtstore(buf.data(), ones.data(), sizeof(ones));
        c.crash();
        size_t kept = 0;
        for (uint64_t w : buf)
            kept += (w == 1);
        if (kept != 0 && kept != buf.size())
            saw_partial = true;
    }
    EXPECT_TRUE(saw_partial);
}

TEST(Scm, PersistAllMakesEverythingDurable)
{
    ScmContext c(trackedCfg());
    uint64_t a = 0, b = 0;
    c.storeT<uint64_t>(&a, 1);
    c.wtstoreT<uint64_t>(&b, 2);
    c.persistAll();
    c.crash();
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
}

TEST(Scm, StatsCountPrimitives)
{
    ScmContext c(trackedCfg());
    uint64_t w = 0;
    c.storeT<uint64_t>(&w, 1);
    c.wtstoreT<uint64_t>(&w, 2);
    c.flush(&w);
    c.fence();
    const auto s = c.statsSnapshot();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.wtstores, 1u);
    EXPECT_EQ(s.flushes, 1u);
    EXPECT_EQ(s.fences, 1u);
    EXPECT_EQ(s.bytes_streamed, 8u);
    EXPECT_EQ(s.bytes_stored, 8u);
}

TEST(Scm, VirtualLatencyChargesFlushAndFence)
{
    ScmConfig cfg = trackedCfg();
    cfg.latency_mode = LatencyMode::kVirtual;
    cfg.write_latency_ns = 150;
    ScmContext c(cfg);
    uint64_t w = 0;
    c.storeT<uint64_t>(&w, 1);
    c.flush(&w);    // 150 ns
    c.fence();      // 150 ns
    EXPECT_EQ(c.emulatedDelayNs(), 300u);
}

TEST(Scm, VirtualLatencyModelsStreamingBandwidth)
{
    ScmConfig cfg = trackedCfg();
    cfg.latency_mode = LatencyMode::kVirtual;
    cfg.write_latency_ns = 150;
    cfg.write_bandwidth_bytes_per_us = 4096; // 4 GB/s
    ScmContext c(cfg);
    std::vector<uint8_t> src(4096, 0xab);
    std::vector<uint8_t> dst(4096, 0);
    c.wtstore(dst.data(), src.data(), src.size());
    c.fence();
    // 4096 bytes at 4096 bytes/us = 1000 ns, plus the 150 ns fence.
    EXPECT_EQ(c.emulatedDelayNs(), 1150u);
}

TEST(Scm, SpinLatencyIsAtLeastTarget)
{
    // The paper's calibration result: inserted delays are at least equal
    // to the target delay (section 6.1).
    ScmConfig cfg = trackedCfg();
    cfg.latency_mode = LatencyMode::kSpin;
    cfg.write_latency_ns = 20000; // large enough to measure reliably
    ScmContext c(cfg);
    uint64_t w = 0;
    c.storeT<uint64_t>(&w, 1);
    const auto t0 = std::chrono::steady_clock::now();
    c.flush(&w);
    const auto t1 = std::chrono::steady_clock::now();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    EXPECT_GE(ns, 20000);
}

TEST(Scm, WriteHookSeesEventsAndCanInjectCrash)
{
    ScmContext c(trackedCfg());
    uint64_t w = 0;
    uint64_t events = 0;
    c.setWriteHook([&](uint64_t, ScmContext::Event, const void *, size_t) {
        ++events;
    });
    c.storeT<uint64_t>(&w, 1);
    c.flush(&w);
    c.fence();
    EXPECT_EQ(events, 3u);

    c.setWriteHook([&](uint64_t n, ScmContext::Event, const void *, size_t) {
        if (n >= c.eventCount())
            throw scm::CrashNow{n};
    });
    EXPECT_THROW(c.storeT<uint64_t>(&w, 2), scm::CrashNow);
    c.setWriteHook(nullptr);
}

TEST(Scm, FencesArePerThread)
{
    // Thread A's fence must not make thread B's streamed writes durable.
    ScmContext c(trackedCfg());
    uint64_t a = 0, b = 0;
    std::thread tb([&] { c.wtstoreT<uint64_t>(&b, 2); });
    tb.join();
    c.wtstoreT<uint64_t>(&a, 1);
    c.fence(); // calling thread only
    c.crash();
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 0u);
}

TEST(Scm, CrossThreadFlushFenceMakesCachedStoreDurable)
{
    // The asynchronous-truncation pattern: one thread issues cached
    // stores, a different thread flushes the lines and fences.  clflush
    // operates on the coherent cache, so this must be durable.
    ScmContext c(trackedCfg());
    uint64_t word = 0;
    c.storeT<uint64_t>(&word, 42);
    std::thread flusher([&] {
        c.flush(&word);
        c.fence();
    });
    flusher.join();
    c.crash();
    EXPECT_EQ(word, 42u);
}

TEST(Scm, CrossThreadFlushWithoutFenceStillVolatile)
{
    ScmContext c(trackedCfg());
    uint64_t word = 0;
    c.storeT<uint64_t>(&word, 42);
    std::thread flusher([&] { c.flush(&word); });
    flusher.join();
    c.crash();
    EXPECT_EQ(word, 0u) << "flush without the flusher's fence is not durable";
}

TEST(Scm, MultiThreadedWritesAllDurableAfterEachThreadFences)
{
    ScmContext c(trackedCfg());
    constexpr int kThreads = 4;
    constexpr int kWords = 256;
    std::vector<uint64_t> data(kThreads * kWords, 0);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            for (int i = 0; i < kWords; ++i)
                c.wtstoreT<uint64_t>(&data[t * kWords + i],
                                     uint64_t(t * 1000 + i));
            c.fence();
        });
    }
    for (auto &th : ts)
        th.join();
    c.crash();
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kWords; ++i)
            EXPECT_EQ(data[t * kWords + i], uint64_t(t * 1000 + i));
}

TEST(Scm, PublishedContextUnpublishesOnDestruction)
{
    scm::setCtx(nullptr);
    ScmContext &fallback = scm::ctx();
    {
        ScmContext mine(trackedCfg());
        scm::setCtx(&mine);
        EXPECT_EQ(&scm::ctx(), &mine);
    }
    // A destroyed context never stays published: lookups fall back to
    // the shared default.
    EXPECT_EQ(&scm::ctx(), &fallback);
}

// Property sweep: for any interleaving of stores/flushes under any crash
// seed, a durable prefix protocol (write, flush, fence, advance marker)
// never exposes a marker beyond durable data.
class ScmCrashProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ScmCrashProperty, MarkerNeverAheadOfData)
{
    const uint64_t seed = GetParam();
    ScmContext c(trackedCfg(CrashPersistMode::kRandomSubset, seed));

    alignas(64) static uint64_t slots[64];
    alignas(8) static uint64_t marker;
    std::memset(slots, 0, sizeof(slots));
    marker = 0;

    // Protocol: write slot i, flush+fence it, then advance the marker
    // (wtstore+fence).  Invariant: post-crash, every slot < marker holds
    // its value.
    for (uint64_t i = 0; i < 16; ++i) {
        c.storeT<uint64_t>(&slots[i], i + 100);
        c.flush(&slots[i]);
        c.fence();
        c.wtstoreT<uint64_t>(&marker, i + 1);
        if (i == 7 + seed % 8)
            break; // crash mid-protocol, marker update unfenced
    }
    c.crash();

    for (uint64_t i = 0; i < marker; ++i)
        EXPECT_EQ(slots[i], i + 100) << "marker " << marker << " slot " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScmCrashProperty,
                         ::testing::Range<uint64_t>(0, 32));

// --- Thread-interleaving and granularity edge cases surfaced by the
// --- Px86 conformance harness (src/conform, DESIGN.md §5.2).

TEST(Scm, CrossThreadFlushWrongFenceStillVolatile)
{
    // The durability edge clflush→mfence belongs to the flushing
    // thread: the store owner fencing after SOMEONE ELSE flushed does
    // not retire the line.
    ScmContext c(trackedCfg());
    uint64_t word = 0;
    c.storeT<uint64_t>(&word, 42);
    std::thread flusher([&] { c.flush(&word); });
    flusher.join();
    c.fence(); // wrong thread: it never flushed the line
    c.crash();
    EXPECT_EQ(word, 0u)
        << "a fence retires only the lines the calling thread flushed";
}

TEST(Scm, DoubleFlushEitherThreadsFenceRetires)
{
    // A flush claim is shared, not exclusive: when two threads both
    // flushed the line, either one's fence makes it durable — the
    // second flusher must not be denied the durability edge.
    ScmContext c(trackedCfg());
    uint64_t word = 0;
    c.storeT<uint64_t>(&word, 42);
    c.flush(&word); // first claim: this thread
    std::thread other([&] {
        c.flush(&word); // second, shared claim
        c.fence();      // the second flusher's fence suffices
    });
    other.join();
    c.crash();
    EXPECT_EQ(word, 42u);
}

TEST(Scm, RetiredOverwriteSurvivesRevert)
{
    // A durable (retired) newer write to a word must never be rewound
    // by the revert of an older still-pending write to the same word.
    ScmContext c(trackedCfg());
    uint64_t word = 0;
    c.storeT<uint64_t>(&word, 1);   // cached, never flushed: pending
    c.wtstoreT<uint64_t>(&word, 2); // streamed over it
    c.fence();                      // the streamed write is durable
    c.crash();
    EXPECT_EQ(word, 2u) << "revert of the pending store resurrected a "
                           "pre-image over durable data";
}

TEST(Scm, RandomSubsetRespectsPerLineFifo)
{
    // Px86: persists to one cache line are FIFO.  Two stores to the
    // same line may survive as {}, {first}, or {both} — never
    // {second} alone.
    for (uint64_t seed = 0; seed < 64; ++seed) {
        ScmContext c(trackedCfg(CrashPersistMode::kRandomSubset, seed));
        alignas(64) uint64_t line[8] = {};
        c.storeT<uint64_t>(&line[0], 1);
        c.storeT<uint64_t>(&line[1], 2);
        c.crash();
        EXPECT_FALSE(line[0] == 0 && line[1] == 2)
            << "seed " << seed
            << ": second store survived without the first";
    }
}

TEST(Scm, FlushRangeStraddlingLinesAllDurable)
{
    // One store() spanning two cache lines, flushRange over the whole
    // extent, fence: every byte must be durable.
    ScmContext c(trackedCfg());
    alignas(64) uint8_t buf[128] = {};
    c.store(buf + 32, std::vector<uint8_t>(64, 0xAB).data(), 64);
    c.flushRange(buf + 32, 64);
    c.fence();
    c.crash();
    for (size_t i = 32; i < 96; ++i)
        EXPECT_EQ(buf[i], 0xAB) << "byte " << i;
}

TEST(Scm, FlushRangePartialLineCoverageSplitsDurability)
{
    // Same straddling store, but only the FIRST line is flushed before
    // the fence: the first line's portion is durable, the second
    // line's portion reverts.  Requires store() to journal per line.
    ScmContext c(trackedCfg());
    alignas(64) uint8_t buf[128] = {};
    c.store(buf + 32, std::vector<uint8_t>(64, 0xCD).data(), 64);
    c.flush(buf + 32); // line 0 only
    c.fence();
    c.crash();
    for (size_t i = 32; i < 64; ++i)
        EXPECT_EQ(buf[i], 0xCD) << "flushed-line byte " << i;
    for (size_t i = 64; i < 96; ++i)
        EXPECT_EQ(buf[i], 0u) << "unflushed-line byte " << i;
}

TEST(Scm, FlushoptFenceIsDurable)
{
    ScmContext c(trackedCfg());
    uint64_t word = 0;
    c.storeT<uint64_t>(&word, 42);
    c.flushopt(&word);
    c.fence();
    c.crash();
    EXPECT_EQ(word, 42u);
}

TEST(Scm, FlushoptWithoutFenceIsVolatile)
{
    ScmContext c(trackedCfg());
    uint64_t word = 0;
    c.storeT<uint64_t>(&word, 42);
    c.flushopt(&word);
    c.crash();
    EXPECT_EQ(word, 0u);
}

TEST(Scm, ConformBugCanarySeversFlushFenceEdge)
{
    // The MN_CONFORM_BUG canary: fence() skips retiring flushed lines
    // (so flush+fence is wrongly volatile) while streamed writes still
    // retire.  The conformance harness must detect this; here we pin
    // the canary's exact behavior.
    ScmConfig cfg = trackedCfg();
    cfg.conform_bug = true;
    ScmContext c(cfg);
    uint64_t flushed = 0, streamed = 0;
    c.storeT<uint64_t>(&flushed, 1);
    c.flush(&flushed);
    c.wtstoreT<uint64_t>(&streamed, 2);
    c.fence();
    c.crash();
    EXPECT_EQ(flushed, 0u) << "canary must sever the clflush→mfence edge";
    EXPECT_EQ(streamed, 2u) << "canary must leave streamed retirement intact";
}
