/**
 * @file
 * Multi-core stress tests for the persistence stack: parallel
 * pmalloc/pfree with cross-thread frees and thread churn (the Hoard
 * per-thread-heap paths), parallel log-slot acquisition, and
 * transaction throughput under thread churn.  The heap test finishes
 * with a simulated crash and verifies by reincarnation heap walk that
 * no block leaked and none is doubly owned — the same invariant the
 * crash sweeper checks, here under real concurrency.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "ds/phash_table.h"
#include "heap/superblock_heap.h"
#include "log/log_manager.h"
#include "runtime/runtime.h"
#include "scm/scm.h"
#include "tests/test_util.h"

namespace scm = mnemosyne::scm;
namespace mtm = mnemosyne::mtm;
namespace heap = mnemosyne::heap;
namespace mlog = mnemosyne::log;
using heap::SuperblockHeap;
using mnemosyne::Runtime;
using mnemosyne::RuntimeConfig;
using mnemosyne::test::TempDir;
using mnemosyne::test::smallRegionConfig;

namespace {

scm::ScmConfig
scmCfg()
{
    scm::ScmConfig c;
    c.crash_mode = scm::CrashPersistMode::kDropUnfenced;
    return c;
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
    rc.txn.log_slots = 8;
    rc.txn.log_slot_bytes = 256 * 1024;
    return rc;
}

/** Busy-wait rendezvous: all @p n threads reach the phase before any
 *  proceeds past it.  (No std::barrier: keep the test C++17-clean.) */
class SpinBarrier
{
  public:
    explicit SpinBarrier(size_t n) : n_(n) {}

    void
    arrive_and_wait()
    {
        const uint64_t phase = phase_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
            arrived_.store(0, std::memory_order_relaxed);
            phase_.fetch_add(1, std::memory_order_release);
        } else {
            while (phase_.load(std::memory_order_acquire) == phase)
                std::this_thread::yield();
        }
    }

  private:
    const size_t n_;
    std::atomic<size_t> arrived_{0};
    std::atomic<uint64_t> phase_{0};
};

/** Small + big sizes, so both allocators see concurrent traffic. */
size_t
randomSize(std::mt19937_64 &rng)
{
    static const size_t sizes[] = {24,   64,   160,  600, 1500,
                                   3000, 4096, 8192, 12288};
    return sizes[rng() % (sizeof(sizes) / sizeof(sizes[0]))];
}

} // namespace

TEST(Concurrency, HeapStressCrossThreadFreesAndChurnNoLeaks)
{
    constexpr size_t kThreads = 4;
    constexpr size_t kSlotsPer = 12;
    constexpr int kRounds = 3;
    constexpr size_t kTotal = kThreads * kSlotsPer;

    TempDir dir;
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(rtCfg(dir.path()));
        auto **slots = static_cast<void **>(rt.regions().pstaticVar(
            "stress_slots", kTotal * sizeof(void *), nullptr));

        // Fresh threads each round: every round's caches are parked on
        // exit and adopted (or their superblocks pooled) by the next
        // round's threads — the thread-churn path.
        for (int round = 0; round < kRounds; ++round) {
            SpinBarrier allocated(kThreads);
            std::vector<std::thread> ts;
            for (size_t t = 0; t < kThreads; ++t) {
                ts.emplace_back([&, t, round] {
                    std::mt19937_64 rng(uint64_t(round) * 97 + t);
                    void **mine = slots + t * kSlotsPer;
                    // Refill this thread's slot range (frees of blocks
                    // allocated by a prior round's exited thread go
                    // through the pooled-superblock path).
                    for (size_t i = 0; i < kSlotsPer; ++i) {
                        if (mine[i])
                            rt.pfree(&mine[i]);
                        rt.pmalloc(randomSize(rng), &mine[i]);
                    }
                    allocated.arrive_and_wait();
                    // Cross-thread frees: free the odd slots of the
                    // next thread's range while that thread is alive —
                    // Hoard's remote-free path against a live cache.
                    void **theirs =
                        slots + ((t + 1) % kThreads) * kSlotsPer;
                    for (size_t i = 1; i < kSlotsPer; i += 2)
                        rt.pfree(&theirs[i]);
                    // Half the threads rotate their cache mid-round so
                    // adoption races with remote frees.
                    if (t % 2 == 0)
                        rt.heap().detachThreadCache();
                });
            }
            for (auto &th : ts)
                th.join();
        }

        // Survivors: even slots full, odd slots freed.
        size_t reachable = 0;
        for (size_t i = 0; i < kTotal; ++i)
            reachable += (slots[i] != nullptr);
        EXPECT_EQ(reachable, kThreads * ((kSlotsPer + 1) / 2));
        c.crash();
    }

    // Reincarnate and walk the heap: accounting must exactly match the
    // reachable slots (nothing leaked, nothing doubly freed), and every
    // reachable block must be live and disjoint.
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(rtCfg(dir.path()));
    auto **slots = static_cast<void **>(rt.regions().pstaticVar(
        "stress_slots", kTotal * sizeof(void *), nullptr));
    auto &h = rt.heap();

    size_t reachable = 0;
    for (size_t i = 0; i < kTotal; ++i) {
        void *p = slots[i];
        if (!p)
            continue;
        ++reachable;
        ASSERT_TRUE(h.owns(p)) << "slot " << i << " dangles";
        ASSERT_GT(h.usableSize(p), 0u) << "slot " << i << " freed block";
    }
    for (size_t i = 0; i < kTotal; ++i) {
        for (size_t j = i + 1; j < kTotal; ++j) {
            if (!slots[i] || !slots[j])
                continue;
            const auto a = reinterpret_cast<uintptr_t>(slots[i]);
            const auto b = reinterpret_cast<uintptr_t>(slots[j]);
            ASSERT_FALSE(a < b + h.usableSize(slots[j]) &&
                         b < a + h.usableSize(slots[i]))
                << "slots " << i << " and " << j << " overlap";
        }
    }
    const auto st = h.stats();
    EXPECT_EQ(st.small.blocks_allocated + st.big.chunks_in_use, reachable)
        << "heap accounting disagrees with reachable slots (leak or "
           "double free)";
}

TEST(Concurrency, DirectSuperblockHeapParallelAllocFree)
{
    constexpr size_t kThreads = 4;
    constexpr size_t kPerThread = 64;

    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    std::vector<uint64_t> arena(SuperblockHeap::footprint(128) / 8, 0);
    auto h = SuperblockHeap::create(arena.data(),
                                    SuperblockHeap::footprint(128));

    std::vector<std::vector<void *>> ptrs(
        kThreads, std::vector<void *>(kPerThread, nullptr));
    SpinBarrier filled(kThreads);
    std::vector<std::thread> ts;
    for (size_t t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            std::mt19937_64 rng(t + 1);
            for (size_t i = 0; i < kPerThread; ++i) {
                const size_t sz = 16u << (rng() % 6); // 16..512
                ASSERT_NE(h->allocate(sz, &ptrs[t][i]), nullptr);
            }
            filled.arrive_and_wait();
            // Free every other block of the next thread's batch while
            // it concurrently frees its own remainder.
            auto &theirs = ptrs[(t + 1) % kThreads];
            for (size_t i = 0; i < kPerThread; i += 2)
                h->free(&theirs[i]);
            h->detachThreadCache();
        });
    }
    for (auto &th : ts)
        th.join();

    size_t live = 0;
    for (auto &v : ptrs)
        for (void *p : v)
            live += (p != nullptr);
    EXPECT_EQ(live, kThreads * kPerThread / 2);
    EXPECT_EQ(h->stats().blocks_allocated, live);
    // Every thread detached, so each cache's partial superblocks went
    // back to the global pool.
    EXPECT_GT(h->pooledSuperblocks(), 0u);
}

TEST(Concurrency, SerializedModeMatchesThreadedAccounting)
{
    // The global-mutex baseline (used by the scaling benchmark) must
    // produce the same accounting as the per-thread mode.
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    std::vector<uint64_t> arena(SuperblockHeap::footprint(64) / 8, 0);
    auto h = SuperblockHeap::create(arena.data(),
                                    SuperblockHeap::footprint(64));
    h->setSerialized(true);
    ASSERT_TRUE(h->serialized());

    std::vector<void *> ptrs(256, nullptr);
    std::vector<std::thread> ts;
    for (size_t t = 0; t < 4; ++t) {
        ts.emplace_back([&, t] {
            for (size_t i = t * 64; i < (t + 1) * 64; ++i)
                ASSERT_NE(h->allocate(64, &ptrs[i]), nullptr);
        });
    }
    for (auto &th : ts)
        th.join();
    EXPECT_EQ(h->stats().blocks_allocated, 256u);
    for (auto &p : ptrs)
        h->free(&p);
    EXPECT_EQ(h->stats().blocks_allocated, 0u);
}

TEST(Concurrency, LogManagerParallelAcquireRelease)
{
    constexpr size_t kSlots = 8;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    const size_t bytes = mlog::LogManager::footprint(kSlots, 64 * 1024);
    std::vector<uint64_t> arena(bytes / 8 + 1, 0);
    auto lm = mlog::LogManager::create(arena.data(), bytes, kSlots,
                                       64 * 1024);

    // All threads acquire at once: the sharded free-slot search must
    // hand out kSlots distinct logs.
    std::vector<mlog::Rawl *> logs(kSlots, nullptr);
    std::vector<std::thread> ts;
    for (size_t t = 0; t < kSlots; ++t)
        ts.emplace_back([&, t] { logs[t] = lm->acquire(t); });
    for (auto &th : ts)
        th.join();
    for (size_t i = 0; i < kSlots; ++i) {
        ASSERT_NE(logs[i], nullptr);
        for (size_t j = i + 1; j < kSlots; ++j)
            ASSERT_NE(logs[i], logs[j]) << "slot handed out twice";
    }
    EXPECT_EQ(lm->activeCount(), kSlots);
    EXPECT_THROW(lm->acquire(99), std::runtime_error);

    ts.clear();
    for (size_t t = 0; t < kSlots; ++t)
        ts.emplace_back([&, t] { lm->release(logs[t]); });
    for (auto &th : ts)
        th.join();
    EXPECT_EQ(lm->activeCount(), 0u);
}

TEST(Concurrency, TxnThroughputUnderThreadChurn)
{
    // Waves of short-lived threads transacting: log leases must recycle
    // (no slot exhaustion) and every increment must commit exactly once.
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path()));
    auto *counter = static_cast<uint64_t *>(
        rt.regions().pstaticVar("churn_counter", sizeof(uint64_t), nullptr));

    constexpr int kWaves = 4;
    constexpr int kThreads = 4;
    constexpr int kIncrements = 50;
    for (int w = 0; w < kWaves; ++w) {
        std::vector<std::thread> ts;
        for (int t = 0; t < kThreads; ++t) {
            ts.emplace_back([&] {
                for (int i = 0; i < kIncrements; ++i) {
                    rt.atomic([&](mtm::Txn &tx) {
                        tx.writeT<uint64_t>(counter,
                                            tx.readT<uint64_t>(counter) + 1);
                    });
                }
            });
        }
        for (auto &th : ts)
            th.join();
    }
    EXPECT_EQ(*counter, uint64_t(kWaves) * kThreads * kIncrements);
    // 16 distinct threads transacted against 8 log slots: only lease
    // recycling makes that possible.
    EXPECT_GT(rt.txns().recycledLogCount(), 0u);
}

TEST(Concurrency, PHashTableReaderWriterStress)
{
    // The KV server's event loops are the first real multi-threaded
    // client of PHashTable: concurrent writers (sync + async commits,
    // in-place overwrites, inserts, deletes) against concurrent readers
    // on overlapping keys.  Writers own disjoint key slices, so the
    // final table contents are exactly each slice's last write — any
    // lost update, torn value, or broken chain shows up in the sweep.
    TempDir dir;
    scm::ScmConfig sc = scmCfg();
    sc.failure_tracking = false;
    scm::ScmContext c(sc);
    scm::ScopedCtx guard(c);
    RuntimeConfig rc = rtCfg(dir.path());
    rc.txn.group_commit = true;
    rc.txn.truncation = mtm::Truncation::kAsync;
    Runtime rt(rc);
    mnemosyne::ds::PHashTable table(rt, "stress_table", 256);

    constexpr int kWriters = 3;
    constexpr int kReaders = 2;
    constexpr int kKeysPerWriter = 40;
    constexpr int kOpsPerWriter = 600;
    std::atomic<bool> stopReaders{false};
    SpinBarrier start(kWriters + kReaders);

    auto keyOf = [](int w, int k) {
        return "w" + std::to_string(w) + "_k" + std::to_string(k);
    };

    std::vector<std::vector<std::string>> last(
        kWriters, std::vector<std::string>(kKeysPerWriter));
    std::vector<std::thread> ts;
    for (int w = 0; w < kWriters; ++w) {
        ts.emplace_back([&, w] {
            std::mt19937 rng(uint32_t(1234 + w));
            start.arrive_and_wait();
            for (int i = 0; i < kOpsPerWriter; ++i) {
                const int k = int(rng() % kKeysPerWriter);
                const std::string key = keyOf(w, k);
                const int kind = int(rng() % 4);
                if (kind == 0) {
                    table.del(key);
                    last[w][size_t(k)].clear();
                } else {
                    // Same-length values exercise the in-place path;
                    // varying lengths force node splices.
                    std::string v = "v" + std::to_string(i) + "_" +
                                    std::string(size_t(rng() % 24), 'x');
                    if (kind == 1)
                        table.put(key, v);
                    else
                        table.putAsync(key, v);
                    last[w][size_t(k)] = v;
                }
            }
            // Retire this thread's trailing async commit while the
            // thread is still alive (per-thread staging slots).
            rt.syncThreadStaging();
        });
    }
    for (int r = 0; r < kReaders; ++r) {
        ts.emplace_back([&, r] {
            std::mt19937 rng(uint32_t(99 + r));
            start.arrive_and_wait();
            std::string v;
            while (!stopReaders.load(std::memory_order_acquire)) {
                const int w = int(rng() % kWriters);
                const int k = int(rng() % kKeysPerWriter);
                // Isolation only: any committed value (or absence) is
                // fine, but the read must never tear or crash.
                table.get(keyOf(w, k), &v);
            }
        });
    }
    for (int w = 0; w < kWriters; ++w)
        ts[size_t(w)].join();
    stopReaders.store(true, std::memory_order_release);
    for (size_t i = kWriters; i < ts.size(); ++i)
        ts[i].join();

    rt.sync();
    size_t expectCount = 0;
    for (int w = 0; w < kWriters; ++w) {
        for (int k = 0; k < kKeysPerWriter; ++k) {
            std::string v;
            const bool found = table.get(keyOf(w, k), &v);
            if (last[w][size_t(k)].empty()) {
                EXPECT_FALSE(found) << keyOf(w, k);
            } else {
                ASSERT_TRUE(found) << keyOf(w, k);
                EXPECT_EQ(v, last[w][size_t(k)]) << keyOf(w, k);
                expectCount++;
            }
        }
    }
    EXPECT_EQ(table.size(), expectCount);
}
