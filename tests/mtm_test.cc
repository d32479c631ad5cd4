/**
 * @file
 * Tests for durable memory transactions: ACID semantics, isolation
 * under concurrency, sync/async truncation, recovery replay in
 * timestamp order, and crash-point sweeps that verify atomicity and
 * durability at every point of the commit protocol (the reliability
 * methodology of paper section 6.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "mtm/txn_manager.h"
#include "runtime/runtime.h"
#include "scm/scm.h"
#include "tests/test_util.h"

namespace scm = mnemosyne::scm;
namespace mtm = mnemosyne::mtm;
using mnemosyne::Runtime;
using mnemosyne::RuntimeConfig;
using mnemosyne::test::TempDir;
using mnemosyne::test::smallRegionConfig;

namespace {

scm::ScmConfig
scmCfg(scm::CrashPersistMode mode = scm::CrashPersistMode::kDropUnfenced,
       uint64_t seed = 0)
{
    scm::ScmConfig c;
    c.crash_mode = mode;
    c.crash_seed = seed;
    return c;
}

RuntimeConfig
rtCfg(const std::string &dir,
      mtm::Truncation trunc = mtm::Truncation::kSync)
{
    RuntimeConfig rc;
    rc.use_current_scm_context = true;
    rc.region = smallRegionConfig(dir);
    rc.small_heap_bytes = 4 << 20;
    rc.big_heap_bytes = 4 << 20;
    rc.static_region_bytes = 1 << 20;
    rc.txn.log_slots = 8;
    rc.txn.log_slot_bytes = 256 * 1024;
    rc.txn.truncation = trunc;
    return rc;
}

uint64_t *
pvar(Runtime &rt, const std::string &name)
{
    return static_cast<uint64_t *>(
        rt.regions().pstaticVar(name, sizeof(uint64_t), nullptr));
}

/** One-shot crash injector: fires once at the given event, then lets
 *  unwinding code proceed (its writes are dropped by crash()).  The
 *  hook can fire on any thread that drives the emulator (e.g. the
 *  truncator), so the one-shot latch is atomic.  ScmContext calls a
 *  copy of the hook outside its lock, so a thread may still run it
 *  after this object is gone: the hook shares ownership of the latch
 *  rather than pointing into this object. */
class CrashAt
{
  public:
    CrashAt(scm::ScmContext &c, uint64_t at) : c_(c)
    {
        c_.setWriteHook([fired = fired_, at](uint64_t n,
                                             scm::ScmContext::Event,
                                             const void *, size_t) {
            if (!fired->load(std::memory_order_relaxed) && n >= at) {
                fired->store(true, std::memory_order_relaxed);
                throw scm::CrashNow{n};
            }
        });
    }
    ~CrashAt() { c_.setWriteHook(nullptr); }
    bool fired() const { return fired_->load(std::memory_order_relaxed); }

  private:
    scm::ScmContext &c_;
    std::shared_ptr<std::atomic<bool>> fired_ =
        std::make_shared<std::atomic<bool>>(false);
};

} // namespace

TEST(Mtm, CommitMakesWritesVisibleAndDurable)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path()));
    uint64_t *x = pvar(rt, "x");

    rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 42); });
    EXPECT_EQ(*x, 42u);
    c.crash();
    EXPECT_EQ(*x, 42u) << "committed transaction must survive a crash";
}

TEST(Mtm, ValuesPersistAcrossRuntimeRestart)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    {
        Runtime rt(rtCfg(dir.path()));
        rt.atomic([&](mtm::Txn &tx) {
            tx.writeT<uint64_t>(pvar(rt, "x"), 1234);
        });
    }
    Runtime rt(rtCfg(dir.path()));
    EXPECT_EQ(*pvar(rt, "x"), 1234u);
}

TEST(Mtm, ReadYourOwnWrites)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path()));
    uint64_t *x = pvar(rt, "x");

    rt.atomic([&](mtm::Txn &tx) {
        tx.writeT<uint64_t>(x, 7);
        EXPECT_EQ(tx.readT<uint64_t>(x), 7u);
        EXPECT_EQ(*x, 0u) << "lazy versioning: memory unchanged until commit";
        tx.writeT<uint64_t>(x, 8);
        EXPECT_EQ(tx.readT<uint64_t>(x), 8u);
    });
    EXPECT_EQ(*x, 8u);
}

TEST(Mtm, SubWordAndMultiWordAccess)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path()));
    auto *buf = static_cast<char *>(
        rt.regions().pstaticVar("buf", 64, nullptr));

    const char msg[] = "hello, persistent memory!";
    rt.atomic([&](mtm::Txn &tx) {
        tx.write(buf + 3, msg, sizeof(msg)); // unaligned, multi-word
        char back[sizeof(msg)];
        tx.read(back, buf + 3, sizeof(msg));
        EXPECT_STREQ(back, msg);
    });
    EXPECT_STREQ(buf + 3, msg);
    c.crash();
    EXPECT_STREQ(buf + 3, msg);
}

TEST(Mtm, UserExceptionRollsBack)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path()));
    uint64_t *x = pvar(rt, "x");

    EXPECT_THROW(rt.atomic([&](mtm::Txn &tx) {
        tx.writeT<uint64_t>(x, 99);
        throw std::runtime_error("user bail-out");
    }),
                 std::runtime_error);
    EXPECT_EQ(*x, 0u);
    // The system must be usable afterwards.
    rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 1); });
    EXPECT_EQ(*x, 1u);
}

TEST(Mtm, AbortHooksRunOnRollbackOnly)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path()));
    uint64_t *x = pvar(rt, "x");

    int aborts = 0, commits = 0;
    EXPECT_THROW(rt.atomic([&](mtm::Txn &tx) {
        tx.onAbort([&] { ++aborts; });
        tx.onCommit([&] { ++commits; });
        tx.writeT<uint64_t>(x, 5);
        throw std::runtime_error("bail");
    }),
                 std::runtime_error);
    EXPECT_EQ(aborts, 1);
    EXPECT_EQ(commits, 0);

    rt.atomic([&](mtm::Txn &tx) {
        tx.onAbort([&] { ++aborts; });
        tx.onCommit([&] { ++commits; });
        tx.writeT<uint64_t>(x, 6);
    });
    EXPECT_EQ(aborts, 1);
    EXPECT_EQ(commits, 1);
}

TEST(Mtm, NestedAtomicFlattens)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path()));
    uint64_t *x = pvar(rt, "x");
    uint64_t *y = pvar(rt, "y");

    rt.atomic([&](mtm::Txn &tx) {
        tx.writeT<uint64_t>(x, 1);
        rt.atomic([&](mtm::Txn &inner) {
            EXPECT_EQ(&inner, &tx) << "flat nesting: same descriptor";
            inner.writeT<uint64_t>(y, 2);
        });
        EXPECT_EQ(*y, 0u) << "inner commit must not publish early";
    });
    EXPECT_EQ(*x, 1u);
    EXPECT_EQ(*y, 2u);
}

TEST(Mtm, ConcurrentIncrementsAreIsolated)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path()));
    uint64_t *counter = pvar(rt, "counter");

    constexpr int kThreads = 4;
    constexpr int kIncrements = 200;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&] {
            for (int i = 0; i < kIncrements; ++i) {
                rt.atomic([&](mtm::Txn &tx) {
                    const uint64_t v = tx.readT<uint64_t>(counter);
                    tx.writeT<uint64_t>(counter, v + 1);
                });
            }
        });
    }
    for (auto &th : ts)
        th.join();
    EXPECT_EQ(*counter, uint64_t(kThreads) * kIncrements);
    EXPECT_GE(rt.txns().stats().commits, uint64_t(kThreads) * kIncrements);
}

TEST(Mtm, ConcurrentDisjointStructuresProceed)
{
    // Transactions allow multiple threads to concurrently update
    // different data structures (section 3.3).
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path()));
    auto *arr = static_cast<uint64_t *>(
        rt.regions().pstaticVar("arr", 64 * sizeof(uint64_t), nullptr));

    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t) {
        ts.emplace_back([&, t] {
            for (int i = 0; i < 100; ++i) {
                rt.atomic([&](mtm::Txn &tx) {
                    // 8 words apart: disjoint cache lines and stripes.
                    uint64_t v = tx.readT<uint64_t>(&arr[t * 8]);
                    tx.writeT<uint64_t>(&arr[t * 8], v + 1);
                });
            }
        });
    }
    for (auto &th : ts)
        th.join();
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(arr[t * 8], 100u);
}

TEST(Mtm, CrashBeforeCommitRollsBackOnRecovery)
{
    TempDir dir;
    uint64_t *x_addr = nullptr;
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(rtCfg(dir.path()));
        uint64_t *x = pvar(rt, "x");
        x_addr = x;
        rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 10); });

        // Crash in the middle of a transaction: after the first logged
        // write, long before the commit record.
        bool crashed = false;
        try {
            CrashAt crash(c, c.eventCount() + 2);
            rt.atomic([&](mtm::Txn &tx) {
                tx.writeT<uint64_t>(x, 11);
                tx.writeT<uint64_t>(x, 12);
            });
        } catch (const scm::CrashNow &) {
            crashed = true;
        }
        ASSERT_TRUE(crashed);
        c.crash(true);
    }
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(rtCfg(dir.path()));
    EXPECT_EQ(pvar(rt, "x"), x_addr) << "fixed-address mapping";
    EXPECT_EQ(*pvar(rt, "x"), 10u)
        << "uncommitted transaction must roll back";
    // The committed first txn may be replayed (its lazy log-head
    // advance rides the next fence and was lost in the crash); the
    // replay is idempotent.  The torn second txn must NOT count.
    EXPECT_LE(rt.txns().stats().replayed_txns, 1u);
}

TEST(Mtm, CrashAfterCommitRecordReplaysOnRecovery)
{
    TempDir dir;
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(rtCfg(dir.path(), mtm::Truncation::kAsync));
        uint64_t *x = pvar(rt, "x");

        // Async truncation: commit returns before data is forced to
        // SCM.  Crash immediately after the commit returns, with the
        // truncation thread deterministically stalled behind us.
        rt.txns().pauseTruncation();
        rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 77); });
        EXPECT_EQ(rt.txns().truncationBacklog(), 1u);
        c.crash(true);
    }
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(rtCfg(dir.path()));
    EXPECT_EQ(*pvar(rt, "x"), 77u)
        << "committed txn must replay from the redo log";
}

TEST(Mtm, AsyncTruncationEventuallyTruncates)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path(), mtm::Truncation::kAsync));
    uint64_t *x = pvar(rt, "x");
    for (int i = 0; i < 50; ++i)
        rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, i); });
    rt.txns().drainTruncation();
    EXPECT_EQ(*x, 49u);
    c.crash();
    EXPECT_EQ(*x, 49u) << "after drain, data is durable in place";
}

TEST(Mtm, RecoveryReplaysInTimestampOrder)
{
    // Two threads commit interleaved txns to the same variable; after a
    // crash that preserves all logs but no in-place data, the replayed
    // final value must be the one with the highest timestamp.
    TempDir dir;
    uint64_t expected = 0;
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(rtCfg(dir.path(), mtm::Truncation::kAsync));
        uint64_t *x = pvar(rt, "x");
        rt.txns().pauseTruncation();

        std::vector<std::thread> ts;
        for (int t = 0; t < 2; ++t) {
            ts.emplace_back([&, t] {
                for (int i = 0; i < 50; ++i) {
                    rt.atomic([&](mtm::Txn &tx) {
                        tx.writeT<uint64_t>(x, uint64_t(t * 1000 + i));
                    });
                }
            });
        }
        for (auto &th : ts)
            th.join();
        expected = *x; // volatile view reflects the last commit
        c.crash(true); // all in-place data reverts; logs survive flush
    }
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(rtCfg(dir.path()));
    EXPECT_GT(rt.txns().stats().replayed_txns, 0u);
    EXPECT_EQ(*pvar(rt, "x"), expected)
        << "replay in counter order must reproduce the final value";
}

TEST(Mtm, StagedAllocationSurvivesCommitAndReclaimsOnCrash)
{
    TempDir dir;
    void *leaked = nullptr;
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(rtCfg(dir.path()));
        auto **root = static_cast<void **>(rt.regions().pstaticVar(
            "root", sizeof(void *), nullptr));

        // Committed link: block ends up reachable, staging cleared.
        void *blk = rt.stageAlloc(64);
        rt.atomic([&](mtm::Txn &tx) {
            tx.writeT<void *>(root, blk);
            rt.clearAllocStaging(tx);
        });
        EXPECT_EQ(*root, blk);

        // Staged but never linked: simulated crash leaves the block in
        // the staging slot.
        leaked = rt.stageAlloc(64);
        c.crash(true);
    }
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(rtCfg(dir.path()));
    EXPECT_EQ(rt.reincarnation().reclaimed_allocs, 1u)
        << "unlinked staged block must be reclaimed, not leaked";
    auto **root = static_cast<void **>(
        rt.regions().pstaticVar("root", sizeof(void *), nullptr));
    EXPECT_NE(*root, nullptr);
    EXPECT_NE(*root, leaked);
    // The linked block is still allocated; the leaked one was freed.
    EXPECT_GE(rt.heap().usableSize(*root), 64u);
}

TEST(Mtm, RandomizedSubWordDifferential)
{
    // Differential fuzz of the barriers against a byte-level shadow:
    // random (mis)aligned writes and reads of up to 72 bytes inside
    // transactions — whole lines, runs crossing line boundaries,
    // read-own-writes, sub-word merges — and post-commit memory
    // equality.  Occasional user-exception rounds verify abort/reset
    // reuse leaves no stale buffered state behind.
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path()));
    constexpr size_t kBytes = 2048;
    constexpr size_t kMaxLen = 72;
    auto *arr = static_cast<uint8_t *>(
        rt.regions().pstaticVar("fuzz_arr", kBytes, nullptr));
    std::vector<uint8_t> shadow(kBytes, 0);

    std::mt19937_64 rng(0x5ab);
    for (int round = 0; round < 300; ++round) {
        std::vector<uint8_t> staged = shadow;
        const bool abort_round = (rng() % 5 == 0);
        try {
            rt.atomic([&](mtm::Txn &tx) {
                const int ops = 1 + int(rng() % 24);
                for (int op = 0; op < ops; ++op) {
                    const size_t len = 1 + size_t(rng() % kMaxLen);
                    const size_t off = rng() % (kBytes - len);
                    if (rng() % 2) {
                        uint8_t buf[kMaxLen];
                        for (size_t i = 0; i < len; ++i)
                            buf[i] = uint8_t(rng());
                        tx.write(arr + off, buf, len);
                        std::copy(buf, buf + len, staged.begin() + off);
                    } else {
                        uint8_t got[kMaxLen];
                        tx.read(got, arr + off, len);
                        ASSERT_EQ(0, std::memcmp(got, staged.data() + off,
                                                 len))
                            << "read-own-writes mismatch at " << off;
                    }
                }
                if (abort_round)
                    throw std::runtime_error("user abort");
            });
        } catch (const std::runtime_error &) {
            ASSERT_TRUE(abort_round);
        }
        if (!abort_round)
            shadow = staged;
        ASSERT_EQ(0, std::memcmp(arr, shadow.data(), kBytes))
            << (abort_round ? "aborted" : "committed")
            << " round " << round;
    }
}

TEST(Mtm, StagedRecordRecoveryRoundTrip)
{
    // The per-txn staged record format round-trips through a crash:
    // several multi-word transactions commit (each one record), the
    // crash reverts all in-place data, and recovery replays the values
    // parsed out of the [kTagCommit, ts, pairs...] records.
    TempDir dir;
    constexpr size_t kWords = 64;
    std::vector<uint64_t> expected(kWords);
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(rtCfg(dir.path(), mtm::Truncation::kAsync));
        auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
            "rec_arr", kWords * sizeof(uint64_t), nullptr));
        rt.txns().pauseTruncation();
        for (int t = 0; t < 10; ++t) {
            rt.atomic([&](mtm::Txn &tx) {
                for (size_t i = 0; i < kWords; i += 7)
                    tx.writeT<uint64_t>(&arr[i], uint64_t(t * 1000 + i));
            });
        }
        for (size_t i = 0; i < kWords; i += 7)
            expected[i] = uint64_t(9 * 1000 + i);
        c.crash(true);
    }
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(rtCfg(dir.path()));
    EXPECT_EQ(rt.txns().stats().replayed_txns, 10u);
    auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
        "rec_arr", kWords * sizeof(uint64_t), nullptr));
    for (size_t i = 0; i < kWords; i += 7)
        EXPECT_EQ(arr[i], expected[i]) << "word " << i;
}

TEST(Mtm, OversizedTxnSpillsAndRecovers)
{
    // A transaction whose redo exceeds the staged-record cap spills
    // leading chunks as plain pair records; recovery must stitch the
    // chunks back together with the commit record's own pairs.
    TempDir dir;
    constexpr size_t kWords = 2600; // redo = 2 + 2*2600 words > 4096 cap
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(rtCfg(dir.path(), mtm::Truncation::kAsync));
        auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
            "spill_arr", kWords * sizeof(uint64_t), nullptr));
        rt.txns().pauseTruncation();
        rt.atomic([&](mtm::Txn &tx) {
            for (size_t i = 0; i < kWords; ++i)
                tx.writeT<uint64_t>(&arr[i], i * 3 + 1);
        });
        c.crash(true);
    }
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(rtCfg(dir.path()));
    EXPECT_EQ(rt.txns().stats().replayed_txns, 1u);
    auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
        "spill_arr", kWords * sizeof(uint64_t), nullptr));
    for (size_t i = 0; i < kWords; ++i)
        ASSERT_EQ(arr[i], i * 3 + 1) << "word " << i;
}

TEST(Mtm, OversizedTxnSpillsAndRecoversBothFormats)
{
    // The spill path pinned to each record format explicitly (the
    // un-suffixed test above runs whatever the default is): leading
    // chunks go out as plain pair records, the tail as a v1 or compact
    // v2 commit record; recovery stitches them back together.
    for (const bool compact : {false, true}) {
        TempDir dir;
        constexpr size_t kWords = 2600; // v1 redo = 5202 words > 4096 cap
        {
            scm::ScmContext c(scmCfg());
            scm::ScopedCtx guard(c);
            auto cfg = rtCfg(dir.path(), mtm::Truncation::kAsync);
            cfg.txn.compact_redo = compact;
            Runtime rt(cfg);
            auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
                "spill_fmt_arr", kWords * sizeof(uint64_t), nullptr));
            rt.txns().pauseTruncation();
            rt.atomic([&](mtm::Txn &tx) {
                for (size_t i = 0; i < kWords; ++i)
                    tx.writeT<uint64_t>(&arr[i], i * 5 + 2);
            });
            c.crash(true);
        }
        scm::ScmContext c2(scmCfg());
        scm::ScopedCtx guard2(c2);
        Runtime rt(rtCfg(dir.path()));
        EXPECT_EQ(rt.txns().stats().replayed_txns, 1u)
            << "compact=" << compact;
        auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
            "spill_fmt_arr", kWords * sizeof(uint64_t), nullptr));
        for (size_t i = 0; i < kWords; ++i)
            ASSERT_EQ(arr[i], i * 5 + 2)
                << "word " << i << " compact=" << compact;
    }
}

TEST(Mtm, RedoFormatDifferentialFuzz)
{
    // v1 and v2 are two encodings of the same redo: run an identical
    // randomized transaction sequence under each format, crash, and
    // recovery must replay BYTE-IDENTICAL images.  Shapes mix clustered
    // span writes with scattered single-word updates.
    constexpr size_t kWords = 256;
    constexpr int kTxns = 12;
    for (uint64_t seed = 0; seed < 4; ++seed) {
        std::vector<std::vector<uint64_t>> images;
        for (const bool compact : {false, true}) {
            TempDir dir;
            {
                scm::ScmContext c(scmCfg());
                scm::ScopedCtx guard(c);
                auto cfg = rtCfg(dir.path(), mtm::Truncation::kAsync);
                cfg.txn.compact_redo = compact;
                Runtime rt(cfg);
                auto *arr = static_cast<uint64_t *>(
                    rt.regions().pstaticVar("diff_arr",
                                            kWords * sizeof(uint64_t),
                                            nullptr));
                rt.txns().pauseTruncation();
                std::mt19937_64 rng(seed * 7919 + 13);
                for (int t = 0; t < kTxns; ++t) {
                    const uint64_t span_base = rng() % (kWords - 8);
                    const uint64_t span_len = 1 + rng() % 7;
                    uint64_t scattered[4];
                    for (auto &s : scattered)
                        s = rng() % kWords;
                    uint64_t vals[12];
                    for (auto &v : vals)
                        v = rng();
                    rt.atomic([&](mtm::Txn &tx) {
                        tx.write(&arr[span_base], vals,
                                 span_len * sizeof(uint64_t));
                        for (int k = 0; k < 4; ++k)
                            tx.writeT<uint64_t>(&arr[scattered[k]],
                                                vals[8 + k % 4]);
                    });
                }
                c.crash(true);
            }
            scm::ScmContext c2(scmCfg());
            scm::ScopedCtx guard2(c2);
            Runtime rt(rtCfg(dir.path()));
            EXPECT_EQ(rt.txns().stats().replayed_txns, unsigned(kTxns))
                << "seed=" << seed << " compact=" << compact;
            auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
                "diff_arr", kWords * sizeof(uint64_t), nullptr));
            images.emplace_back(arr, arr + kWords);
        }
        ASSERT_EQ(images[0], images[1]) << "seed=" << seed;
    }
}

TEST(Mtm, TornTailRecoveryPrefixBothFormats)
{
    // Crash MID-APPEND of the last transaction's commit record: the
    // tornbit scan must drop the partial record, and recovery replays
    // either the 6 completed transactions or all 7 (the in-flight one
    // may have reached its durability point) — never a torn mix.
    constexpr size_t kWords = 64;
    constexpr int kDone = 6;
    auto image = [&](int txns) {
        std::vector<uint64_t> v(kWords, 0);
        for (int t = 0; t < txns; ++t)
            for (size_t i = t; i < size_t(t) + 9 && i < kWords; ++i)
                v[i] = uint64_t(t) * 4096 + i + 1;
        return v;
    };
    for (const bool compact : {false, true}) {
        TempDir dir;
        {
            scm::ScmContext c(scmCfg());
            scm::ScopedCtx guard(c);
            auto cfg = rtCfg(dir.path(), mtm::Truncation::kAsync);
            cfg.txn.compact_redo = compact;
            Runtime rt(cfg);
            auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
                "torn_arr", kWords * sizeof(uint64_t), nullptr));
            rt.txns().pauseTruncation();
            auto body = [&](int t) {
                return [&, t](mtm::Txn &tx) {
                    for (size_t i = t; i < size_t(t) + 9 && i < kWords;
                         ++i)
                        tx.writeT<uint64_t>(&arr[i],
                                            uint64_t(t) * 4096 + i + 1);
                };
            };
            for (int t = 0; t < kDone; ++t)
                rt.atomic(body(t));
            bool crashed = false;
            try {
                CrashAt crash(c, c.eventCount() + 2);
                rt.atomic(body(kDone));
            } catch (const scm::CrashNow &) {
                crashed = true;
            }
            ASSERT_TRUE(crashed);
            c.crash(true);
        }
        scm::ScmContext c2(scmCfg());
        scm::ScopedCtx guard2(c2);
        Runtime rt(rtCfg(dir.path()));
        auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
            "torn_arr", kWords * sizeof(uint64_t), nullptr));
        const std::vector<uint64_t> got(arr, arr + kWords);
        EXPECT_TRUE(got == image(kDone) || got == image(kDone + 1))
            << "compact=" << compact << ": image is neither the "
            << kDone << "-txn nor the " << (kDone + 1) << "-txn prefix";
    }
}

TEST(Mtm, LockTableHashDistributionTracksTableSize)
{
    // The stripe hash must select the TOP product bits for whatever the
    // table size is (a fixed shift mixes mid bits and silently degrades
    // non-default sizes).  Check spread for several sizes and strides:
    // sequential lines, every other line, and page-strided addresses
    // (a stripe is one 64-byte line, so an 8-byte stride would map
    // eight addresses to each lock by design).
    for (const size_t bits : {12u, 16u, 20u}) {
        mtm::LockTable lt(bits);
        const size_t size = lt.size();
        ASSERT_EQ(size, size_t(1) << bits);
        for (const size_t stride : {64u, 128u, 4096u}) {
            const size_t n = 4 * size;
            std::vector<uint32_t> loads(size, 0);
            uintptr_t a = 0x004000000000ULL;
            size_t nonzero = 0;
            uint32_t max_load = 0;
            for (size_t i = 0; i < n; ++i, a += stride) {
                const size_t idx =
                    lt.indexFor(reinterpret_cast<const void *>(a));
                ASSERT_LT(idx, size);
                if (loads[idx]++ == 0)
                    ++nonzero;
                max_load = std::max(max_load, loads[idx]);
            }
            // Mean load is 4; a healthy multiplicative hash stays
            // within a small factor and touches most of the table.
            EXPECT_LE(max_load, 16u)
                << "bits=" << bits << " stride=" << stride;
            EXPECT_GE(nonzero, size / 2)
                << "bits=" << bits << " stride=" << stride;
        }
    }
}

TEST(Mtm, ThreadChurnRecyclesLogSlots)
{
    // 32 sequential short-lived threads against a runtime with only 8
    // log slots: exited threads' leases must be recycled, or the 9th
    // thread would die with "out of log slots".
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path()));
    uint64_t *x = pvar(rt, "x");
    for (int t = 0; t < 32; ++t) {
        std::thread th([&] {
            rt.atomic([&](mtm::Txn &tx) {
                tx.writeT<uint64_t>(x, tx.readT<uint64_t>(x) + 1);
            });
        });
        th.join();
    }
    EXPECT_EQ(*x, 32u);
    EXPECT_GE(rt.txns().recycledLogCount(), 1u);
    // The pool is bounded by the slot count: leases were reused, not
    // freshly acquired per thread.
    EXPECT_LE(rt.txns().recycledLogCount(), 8u);
}

// Crash-point sweep over a bank-transfer workload: at EVERY crash point
// and under adversarial partial-write loss, the invariant (sum of two
// accounts) holds after recovery.
class MtmCrashSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MtmCrashSweep, TransferInvariantHolds)
{
    const uint64_t seed = GetParam();
    TempDir dir;
    {
        scm::ScmContext c(
            scmCfg(scm::CrashPersistMode::kRandomSubset, seed));
        scm::ScopedCtx guard(c);
        Runtime rt(rtCfg(dir.path(), seed % 2 == 0
                                         ? mtm::Truncation::kSync
                                         : mtm::Truncation::kAsync));
        uint64_t *a = pvar(rt, "acct_a");
        uint64_t *b = pvar(rt, "acct_b");
        rt.atomic([&](mtm::Txn &tx) {
            tx.writeT<uint64_t>(a, 1000);
            tx.writeT<uint64_t>(b, 1000);
        });

        std::mt19937_64 rng(seed);
        const uint64_t crash_at = c.eventCount() + 5 + rng() % 300;
        try {
            CrashAt crash(c, crash_at);
            for (int i = 0; i < 100; ++i) {
                const uint64_t amt = rng() % 50;
                rt.atomic([&](mtm::Txn &tx) {
                    const uint64_t va = tx.readT<uint64_t>(a);
                    const uint64_t vb = tx.readT<uint64_t>(b);
                    tx.writeT<uint64_t>(a, va - amt);
                    tx.writeT<uint64_t>(b, vb + amt);
                });
            }
        } catch (const scm::CrashNow &) {
        }
        c.crash(true);
    }
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(rtCfg(dir.path()));
    const uint64_t a = *pvar(rt, "acct_a");
    const uint64_t b = *pvar(rt, "acct_b");
    EXPECT_EQ(a + b, 2000u) << "a=" << a << " b=" << b << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MtmCrashSweep,
                         ::testing::Range<uint64_t>(0, 64));

// The crash stress program of section 6.2: transactions perform random
// updates to memory using a known seed; after a crash, memory must
// contain exactly the values produced by the committed prefix.
class CrashStress : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CrashStress, MemoryMatchesCommittedPrefix)
{
    const uint64_t seed = GetParam();
    constexpr size_t kWords = 128;
    TempDir dir;
    uint64_t committed_ops = 0;
    {
        scm::ScmContext c(
            scmCfg(scm::CrashPersistMode::kRandomSubset, seed * 31 + 7));
        scm::ScopedCtx guard(c);
        Runtime rt(rtCfg(dir.path()));
        auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
            "stress", kWords * sizeof(uint64_t), nullptr));
        (void)arr;

        std::mt19937_64 rng(seed);
        const uint64_t crash_at = c.eventCount() + 10 + rng() % 1500;
        try {
            CrashAt crash(c, crash_at);
            for (int op = 0; op < 200; ++op) {
                rt.atomic([&](mtm::Txn &tx) {
                    // Each op updates 3 pseudo-random words.
                    std::mt19937_64 oprng(seed * 10000 + op);
                    for (int k = 0; k < 3; ++k) {
                        const size_t idx = oprng() % kWords;
                        const uint64_t val = oprng();
                        tx.writeT<uint64_t>(&arr[idx], val);
                    }
                });
                ++committed_ops;
            }
        } catch (const scm::CrashNow &) {
        }
        c.crash(true);
    }

    // Rebuild the expected image from the committed prefix.  The op in
    // flight at the crash may have reached its durability point (commit
    // record flushed) without atomic() returning, so the state may also
    // match the prefix extended by one op.
    auto image = [&](uint64_t ops) {
        std::vector<uint64_t> expect(kWords, 0);
        for (uint64_t op = 0; op < ops; ++op) {
            std::mt19937_64 oprng(seed * 10000 + op);
            for (int k = 0; k < 3; ++k) {
                const size_t idx = oprng() % kWords;
                expect[idx] = oprng();
            }
        }
        return expect;
    };
    const auto expect = image(committed_ops);
    const auto expect_next = image(committed_ops + 1);

    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(rtCfg(dir.path()));
    auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
        "stress", kWords * sizeof(uint64_t), nullptr));
    const bool matches_prefix =
        std::equal(expect.begin(), expect.end(), arr);
    const bool matches_next =
        std::equal(expect_next.begin(), expect_next.end(), arr);
    EXPECT_TRUE(matches_prefix || matches_next)
        << "seed " << seed << " committed_ops " << committed_ops;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashStress,
                         ::testing::Range<uint64_t>(0, 32));
