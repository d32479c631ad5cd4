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
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "log/log_manager.h"
#include "mtm/recovery.h"
#include "mtm/txn_manager.h"
#include "obs/obs.h"
#include "runtime/runtime.h"
#include "scm/scm.h"
#include "tests/test_util.h"

namespace scm = mnemosyne::scm;
namespace mtm = mnemosyne::mtm;
namespace mlog = mnemosyne::log;
namespace obs = mnemosyne::obs;
using mnemosyne::Runtime;
using mnemosyne::RuntimeConfig;
using mnemosyne::test::TempDir;
using mnemosyne::test::smallRegionConfig;
using mnemosyne::test::statCounter;

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

/** Turns the stats counters on for one scope. */
class StatsOn
{
  public:
    StatsOn() { obs::setEnabled(true); }
    ~StatsOn() { obs::setEnabled(was_); }

  private:
    const bool was_ = obs::enabled();
};

/** Live threads of this process (entries of /proc/self/task). */
size_t
threadCount()
{
    size_t n = 0;
    for (const auto &e :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)e;
        ++n;
    }
    return n;
}

/**
 * A hand-built v1 redo log at the recovery layer.  Commit writes only
 * compact (v2) records, but recoverTransactions still decodes every v1
 * shape: [kTagCommit, ts, (addr, val)...], spilled (addr, val) pair
 * chunks, [kTagAbort], and [kTagCommitEpoch, ts, (addr, val)...] gated
 * by a [kTagEpoch, e, n, (slot, to, ts)...] marker.  The fixture
 * appends such records, durably, to a LogManager over a plain arena;
 * recover() crashes the emulator, reopens the logs and replays them
 * into the fixture's word array.
 */
class V1Log
{
  public:
    static constexpr size_t kSlots = 4;
    static constexpr size_t kSlotBytes = 256 * 1024;

    V1Log(scm::ScmContext &c, size_t words)
        : c_(c),
          arena_(mlog::LogManager::footprint(kSlots, kSlotBytes) / 8 + 1),
          words_(words, 0),
          logs_(mlog::LogManager::create(arena_.data(), arena_.size() * 8,
                                         kSlots, kSlotBytes))
    {
    }

    mlog::Rawl &acquire() { return *logs_->acquire(); }

    uint64_t addr(size_t w) { return uint64_t(uintptr_t(&words_[w])); }

    /** Append @p rec as one record and fence it. */
    void
    append(mlog::Rawl &log, const std::vector<uint64_t> &rec)
    {
        log.append(rec.data(), rec.size());
        log.flush();
    }

    /**
     * The retired v1 writer: one [tag, ts, (addr, val)...] record over
     * the word-sorted write set, or, past @p max_rec words, leading
     * pair chunks and the tail folded into the commit record.
     */
    void
    commit(mlog::Rawl &log, uint64_t ts, const std::map<size_t, uint64_t> &ws,
           uint64_t tag = mtm::kTagCommit, size_t max_rec = 4096)
    {
        std::vector<uint64_t> rec{tag, ts};
        for (const auto &[w, v] : ws) {
            rec.push_back(addr(w));
            rec.push_back(v);
        }
        const size_t chunk = (max_rec - 2) & ~size_t(1);
        size_t pos = 2;
        while (rec.size() - pos + 2 > max_rec) {
            log.append(&rec[pos], chunk);
            pos += chunk;
        }
        rec[pos - 2] = tag;
        rec[pos - 1] = ts;
        log.append(&rec[pos - 2], rec.size() - pos + 2);
        log.flush();
    }

    mtm::RecoveryResult
    recover()
    {
        c_.crash();
        logs_ = mlog::LogManager::open(arena_.data());
        return mtm::recoverTransactions(*logs_, /*va_base=*/0);
    }

    const std::vector<uint64_t> &words() const { return words_; }

  private:
    scm::ScmContext &c_;
    std::vector<uint64_t> arena_;
    std::vector<uint64_t> words_;
    std::unique_ptr<mlog::LogManager> logs_;
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
    // several multi-word transactions commit (each one compact v2
    // record), the crash reverts all in-place data, and recovery
    // replays the values decoded from those records.
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

namespace {

/**
 * Commit one transaction of @p words contiguous words (word i = i * mul
 * + add) through a runtime with truncation paused, crash, and check
 * that recovery replays it whole.  Returns the log records the commit
 * appended.
 */
uint64_t
spillRoundTrip(size_t words, uint64_t mul, uint64_t add)
{
    TempDir dir;
    uint64_t records = 0;
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(rtCfg(dir.path(), mtm::Truncation::kAsync));
        auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
            "spill_arr", words * sizeof(uint64_t), nullptr));
        rt.txns().pauseTruncation();
        const StatsOn stats;
        const uint64_t appends0 = statCounter("rawl.appends");
        rt.atomic([&](mtm::Txn &tx) {
            for (size_t i = 0; i < words; ++i)
                tx.writeT<uint64_t>(&arr[i], i * mul + add);
        });
        records = statCounter("rawl.appends") - appends0;
        c.crash(true);
    }
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(rtCfg(dir.path()));
    EXPECT_EQ(rt.txns().stats().replayed_txns, 1u);
    auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
        "spill_arr", words * sizeof(uint64_t), nullptr));
    size_t good = 0;
    while (good < words && arr[good] == good * mul + add)
        ++good;
    EXPECT_EQ(good, words) << "first word not replayed";
    return records;
}

/** Transaction @p t of the torn-tail tests: words t..t+8 of 64. */
std::map<size_t, uint64_t>
tornTailTxn(int t)
{
    std::map<size_t, uint64_t> ws;
    for (size_t i = t; i < size_t(t) + 9 && i < 64; ++i)
        ws[i] = uint64_t(t) * 4096 + i + 1;
    return ws;
}

} // namespace

TEST(Mtm, OversizedTxnSpillsAndRecovers)
{
    // A transaction whose redo exceeds the staged-record cap spills
    // leading chunks as plain pair records; recovery must stitch the
    // chunks back together with the commit record's own values.  5000
    // contiguous words encode to 5001 v2 words, past the 4096-word cap.
    EXPECT_GT(spillRoundTrip(5000, 3, 1), 1u)
        << "the transaction fit one record: nothing spilled";
}

TEST(Mtm, OversizedTxnSpillsAndRecoversBothFormats)
{
    // The spill path in each record format: the runtime writes leading
    // pair chunks and a compact v2 tail; the v1 fixture writes what the
    // retired v1 writer did, pair chunks and a v1 commit tail.
    // Recovery stitches both back together.
    constexpr size_t kWords = 5000;
    EXPECT_GT(spillRoundTrip(kWords, 5, 2), 1u);

    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    V1Log v1(c, kWords);
    std::map<size_t, uint64_t> ws;
    for (size_t i = 0; i < kWords; ++i)
        ws[i] = i * 5 + 2;
    v1.commit(v1.acquire(), /*ts=*/1, ws);
    const auto res = v1.recover();
    EXPECT_EQ(res.committed_replayed, 1u);
    EXPECT_EQ(res.torn_discarded, 0u);
    for (size_t i = 0; i < kWords; ++i)
        ASSERT_EQ(v1.words()[i], i * 5 + 2) << "v1 word " << i;
}

TEST(Mtm, RedoFormatDifferentialFuzz)
{
    // One randomized transaction sequence, recovered from both record
    // formats: the v2 records the runtime writes and the v1 records of
    // the fixture.  Each recovered image must equal the shadow image
    // the test keeps.  Shapes mix clustered span writes with scattered
    // single-word updates.
    constexpr size_t kWords = 256;
    constexpr int kTxns = 12;
    for (uint64_t seed = 0; seed < 4; ++seed) {
        std::mt19937_64 rng(seed * 7919 + 13);
        std::vector<std::vector<std::pair<size_t, uint64_t>>> txns;
        std::vector<uint64_t> shadow(kWords, 0);
        for (int t = 0; t < kTxns; ++t) {
            const uint64_t span_base = rng() % (kWords - 8);
            const uint64_t span_len = 1 + rng() % 7;
            uint64_t scattered[4];
            for (auto &w : scattered)
                w = rng() % kWords;
            uint64_t vals[12];
            for (auto &v : vals)
                v = rng();
            auto &txn = txns.emplace_back();
            for (uint64_t i = 0; i < span_len; ++i)
                txn.emplace_back(span_base + i, vals[i]);
            for (int k = 0; k < 4; ++k)
                txn.emplace_back(scattered[k], vals[8 + k]);
            for (const auto &[w, v] : txn)
                shadow[w] = v;
        }

        TempDir dir;
        {
            scm::ScmContext c(scmCfg());
            scm::ScopedCtx guard(c);
            Runtime rt(rtCfg(dir.path(), mtm::Truncation::kAsync));
            auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
                "diff_arr", kWords * sizeof(uint64_t), nullptr));
            rt.txns().pauseTruncation();
            for (const auto &txn : txns) {
                rt.atomic([&](mtm::Txn &tx) {
                    // The span as one write() call, then the scattered
                    // words one by one.
                    const size_t span = txn.size() - 4;
                    std::vector<uint64_t> vals;
                    for (size_t i = 0; i < span; ++i)
                        vals.push_back(txn[i].second);
                    tx.write(&arr[txn[0].first], vals.data(),
                             span * sizeof(uint64_t));
                    for (size_t i = span; i < txn.size(); ++i)
                        tx.writeT<uint64_t>(&arr[txn[i].first],
                                            txn[i].second);
                });
            }
            c.crash(true);
        }
        {
            scm::ScmContext c(scmCfg());
            scm::ScopedCtx guard(c);
            Runtime rt(rtCfg(dir.path()));
            EXPECT_EQ(rt.txns().stats().replayed_txns, unsigned(kTxns))
                << "seed=" << seed;
            auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
                "diff_arr", kWords * sizeof(uint64_t), nullptr));
            EXPECT_EQ(std::vector<uint64_t>(arr, arr + kWords), shadow)
                << "v2 image, seed=" << seed;
        }

        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        V1Log v1(c, kWords);
        auto &log = v1.acquire();
        for (size_t t = 0; t < txns.size(); ++t) {
            std::map<size_t, uint64_t> ws; // last write of a word wins
            for (const auto &[w, v] : txns[t])
                ws[w] = v;
            v1.commit(log, /*ts=*/t + 1, ws);
        }
        EXPECT_EQ(v1.recover().committed_replayed, size_t(kTxns));
        EXPECT_EQ(v1.words(), shadow) << "v1 image, seed=" << seed;
    }
}

TEST(Mtm, TornTailRecoveryPrefixBothFormats)
{
    // Crash MID-APPEND of the last transaction's commit record: the
    // tornbit scan must drop the partial record, and recovery replays
    // either the 6 completed transactions or all 7 (the in-flight one
    // may have reached its durability point) — never a torn mix.  The
    // runtime writes v2 records; the fixture writes v1 records.
    constexpr size_t kWords = 64;
    constexpr int kDone = 6;
    auto image = [&](int txns) {
        std::vector<uint64_t> v(kWords, 0);
        for (int t = 0; t < txns; ++t)
            for (const auto &[w, val] : tornTailTxn(t))
                v[w] = val;
        return v;
    };
    auto expectPrefix = [&](const std::vector<uint64_t> &got,
                            const char *format) {
        EXPECT_TRUE(got == image(kDone) || got == image(kDone + 1))
            << format << ": image is neither the " << kDone
            << "-txn nor the " << (kDone + 1) << "-txn prefix";
    };

    TempDir dir;
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(rtCfg(dir.path(), mtm::Truncation::kAsync));
        auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
            "torn_arr", kWords * sizeof(uint64_t), nullptr));
        rt.txns().pauseTruncation();
        auto body = [&](int t) {
            return [&, t](mtm::Txn &tx) {
                for (const auto &[w, val] : tornTailTxn(t))
                    tx.writeT<uint64_t>(&arr[w], val);
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
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(rtCfg(dir.path()));
        auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
            "torn_arr", kWords * sizeof(uint64_t), nullptr));
        expectPrefix(std::vector<uint64_t>(arr, arr + kWords), "v2");
    }

    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    V1Log v1(c, kWords);
    auto &log = v1.acquire();
    for (int t = 0; t < kDone; ++t)
        v1.commit(log, /*ts=*/t + 1, tornTailTxn(t));
    bool crashed = false;
    try {
        CrashAt crash(c, c.eventCount() + 2);
        v1.commit(log, /*ts=*/kDone + 1, tornTailTxn(kDone));
    } catch (const scm::CrashNow &) {
        crashed = true;
    }
    ASSERT_TRUE(crashed);
    v1.recover();
    expectPrefix(v1.words(), "v1");
}

TEST(Mtm, V1CommitRecordsReplayInTimestampOrder)
{
    // Whole [kTagCommit, ts, (addr, val)...] records in two slots:
    // recovery replays them by timestamp across slots, so the latest
    // timestamp's value wins whatever the slot order.
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    V1Log v1(c, 4);
    auto &a = v1.acquire();
    auto &b = v1.acquire();
    v1.commit(a, /*ts=*/3, {{0, 30}});
    v1.commit(a, /*ts=*/1, {{0, 10}, {1, 11}, {2, 12}});
    v1.commit(b, /*ts=*/2, {{0, 20}, {1, 21}});
    const auto res = v1.recover();
    EXPECT_EQ(res.committed_replayed, 3u);
    EXPECT_EQ(res.max_ts, 3u);
    EXPECT_EQ(res.torn_discarded, 0u);
    EXPECT_EQ(v1.words(), (std::vector<uint64_t>{30, 21, 12, 0}));
}

TEST(Mtm, V1PairChunksStitchOrDiscard)
{
    // Spilled pair chunks followed by their commit record replay as one
    // transaction.  Chunks followed by [kTagAbort] are dropped as
    // aborted; chunks with no commit record at the end of a log are a
    // torn transaction.
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    V1Log v1(c, 8);
    auto &a = v1.acquire();
    auto &b = v1.acquire();
    // 2 + 2 * 5 words against a 6-word cap: two 2-pair chunks, then the
    // commit record with the fifth pair.
    v1.commit(a, /*ts=*/7, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}},
              mtm::kTagCommit, /*max_rec=*/6);
    v1.append(b, {v1.addr(5), 6});
    v1.append(b, {mtm::kTagAbort});
    v1.append(b, {v1.addr(6), 7, v1.addr(7), 8});
    const auto res = v1.recover();
    EXPECT_EQ(res.committed_replayed, 1u);
    EXPECT_EQ(res.aborted_discarded, 1u);
    EXPECT_EQ(res.torn_discarded, 1u);
    EXPECT_EQ(v1.words(), (std::vector<uint64_t>{1, 2, 3, 4, 5, 0, 0, 0}));
}

TEST(Mtm, V1EpochRecordsReplayOnlyUnderTheirMarker)
{
    // [kTagCommitEpoch, ts, ...] records replay only when an epoch
    // marker [kTagEpoch, e, n, (slot, to, ts)...] names them and every
    // member the marker names survives.  Epoch 1 is whole; epoch 2
    // names a member record that never reached its slot, so its
    // surviving member is dropped with it; the ts-3 record has no
    // marker at all.
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    V1Log v1(c, 4);
    auto &member = v1.acquire();
    auto &sibling = v1.acquire();
    auto &markers = v1.acquire();
    v1.commit(member, /*ts=*/1, {{0, 10}}, mtm::kTagCommitEpoch);
    const uint64_t to1 = member.tailAbs();
    v1.commit(member, /*ts=*/2, {{1, 20}}, mtm::kTagCommitEpoch);
    const uint64_t to2 = member.tailAbs();
    v1.commit(member, /*ts=*/3, {{2, 30}}, mtm::kTagCommitEpoch);
    v1.commit(sibling, /*ts=*/4, {{3, 40}}); // plain, always replayed
    const uint64_t sib_to = sibling.tailAbs() + 8;
    v1.append(markers, {mtm::kTagEpoch, 1, 1, member.slotId(), to1, 1});
    v1.append(markers, {mtm::kTagEpoch, 2, 2, member.slotId(), to2, 2,
                        sibling.slotId(), sib_to, 99});
    const auto res = v1.recover();
    EXPECT_EQ(res.committed_replayed, 2u); // ts 1 (epoch) and ts 4
    EXPECT_EQ(res.epoch_replayed, 1u);
    EXPECT_EQ(res.unfenced_epoch_discarded, 2u);
    EXPECT_EQ(res.max_ts, 4u);
    EXPECT_EQ(v1.words(), (std::vector<uint64_t>{10, 0, 0, 40}));
}

TEST(Mtm, CompactRecordLogWordsPerClusteredTxn)
{
    // The 4-word clustered update (one write() span) stages one compact
    // record: 5 payload words (tag and stream word, four values), 7
    // after tornbit framing.  The v1 shape [tag, ts, 4 x (addr, val)]
    // is 10 payload words, 12 framed; v2 must stay within 0.65x of it.
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path(), mtm::Truncation::kAsync));
    constexpr size_t kArr = 256;
    auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
        "clustered_arr", kArr * sizeof(uint64_t), nullptr));
    rt.txns().pauseTruncation();
    constexpr uint64_t kTxns = 256;
    const StatsOn stats;
    const uint64_t words0 = statCounter("rawl.append_words");
    for (uint64_t i = 0; i < kTxns; ++i) {
        const uint64_t vals[4] = {i, i + 1, i + 2, i + 3};
        rt.atomic([&](mtm::Txn &tx) {
            tx.write(&arr[(i * 4) % kArr], vals, sizeof(vals));
        });
    }
    const uint64_t words = statCounter("rawl.append_words") - words0;
    EXPECT_EQ(words, 7 * kTxns);
    constexpr uint64_t kV1FramedWords = 12;
    EXPECT_LE(double(words), 0.65 * double(kV1FramedWords * kTxns));
}

TEST(Mtm, TruncatorFlushesHotLineOncePerBatch)
{
    // 256 async-truncation transactions rewrite one cache line while
    // the truncator is paused.  The drain merges their tasks and
    // flushes that line once; a per-task drain flushed it 256 times,
    // and the bound the dedup has to keep is 2x.
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(rtCfg(dir.path(), mtm::Truncation::kAsync));
    auto *raw = static_cast<uint64_t *>(rt.regions().pstaticVar(
        "hot_arr", 2 * scm::kCacheLineSize, nullptr));
    auto *line = reinterpret_cast<uint64_t *>(
        (reinterpret_cast<uintptr_t>(raw) + scm::kCacheLineSize - 1) &
        ~uintptr_t(scm::kCacheLineSize - 1));
    rt.txns().pauseTruncation();
    constexpr uint64_t kTxns = 256;
    for (uint64_t i = 0; i < kTxns; ++i) {
        rt.atomic([&](mtm::Txn &tx) {
            for (uint64_t k = 0; k < 4; ++k)
                tx.writeT<uint64_t>(&line[k], i + k);
        });
    }
    const uint64_t flushes0 = c.statsSnapshot().flushes;
    rt.txns().resumeTruncation();
    rt.txns().drainTruncation();
    EXPECT_EQ(c.statsSnapshot().flushes - flushes0, 1u);
    EXPECT_EQ(rt.txns().truncationBacklog(), 0u);
}

TEST(Mtm, SyncTruncationStartsNoTruncatorThread)
{
    // Only a runtime that can enqueue truncation tasks — async
    // truncation or group commit — starts the truncation thread.  A
    // warm-up runtime first starts any process-global thread.
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    auto extraThreads = [&](const RuntimeConfig &cfg, size_t base) {
        Runtime rt(cfg);
        uint64_t *x = pvar(rt, "x");
        rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 1); });
        return threadCount() - base;
    };
    (void)extraThreads(rtCfg(dir.path()), 0);
    const size_t base = threadCount();
    EXPECT_EQ(extraThreads(rtCfg(dir.path()), base), 0u) << "kSync";
    EXPECT_EQ(extraThreads(rtCfg(dir.path(), mtm::Truncation::kAsync), base),
              1u)
        << "kAsync";
    auto gc = rtCfg(dir.path());
    gc.txn.group_commit = true;
    EXPECT_EQ(extraThreads(gc, base), 1u) << "group commit";
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
