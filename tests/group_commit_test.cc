/**
 * @file
 * Tests for the cross-thread fence-epoch combiner (group commit) and
 * the relaxed-durability commit_async API: ticket semantics across
 * epoch retirement, sync() as a durability barrier over multiple open
 * epochs, tickets outliving their issuing thread via log-lease
 * recycling, whole-epoch recovery, fence amortization, the sealing
 * contract (explicit waits seal at once, sync commits linger), the
 * stripe locks an async commit holds until retirement (one per line,
 * marked retiring with its epoch), barriers that wait for such an
 * epoch instead of aborting, and the tiny-log backoff/truncator
 * interaction regression.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "mtm/group_commit.h"
#include "mtm/txn_manager.h"
#include "obs/obs.h"
#include "obs/stats_registry.h"
#include "runtime/runtime.h"
#include "scm/scm.h"
#include "tests/test_util.h"

namespace scm = mnemosyne::scm;
namespace mtm = mnemosyne::mtm;
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
gcCfg(const std::string &dir, size_t max_batch = 64,
      size_t log_slot_bytes = 256 * 1024)
{
    RuntimeConfig rc;
    rc.use_current_scm_context = true;
    rc.region = smallRegionConfig(dir);
    rc.small_heap_bytes = 4 << 20;
    rc.big_heap_bytes = 4 << 20;
    rc.static_region_bytes = 1 << 20;
    rc.txn.log_slots = 16;
    rc.txn.log_slot_bytes = log_slot_bytes;
    rc.txn.group_commit = true;
    rc.txn.epoch_max_batch = max_batch;
    return rc;
}

uint64_t *
pvar(Runtime &rt, const std::string &name)
{
    return static_cast<uint64_t *>(
        rt.regions().pstaticVar(name, sizeof(uint64_t), nullptr));
}

} // namespace

TEST(GroupCommit, SyncCommitIsDurableOnReturn)
{
    // With the combiner on, a plain atomic{} must keep its full
    // durability guarantee: the commit waits for its epoch's fence.
    TempDir dir;
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(gcCfg(dir.path()));
        uint64_t *x = pvar(rt, "x");
        rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 41); });
        c.crash(true); // no clean shutdown, no sync(): fence already paid
    }
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(gcCfg(dir.path()));
    EXPECT_EQ(*pvar(rt, "x"), 41u);
    EXPECT_GE(rt.txns().stats().replayed_txns, 1u);
}

TEST(GroupCommit, AsyncTicketPendingUntilSync)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(gcCfg(dir.path()));
    uint64_t *x = pvar(rt, "x");
    // Quiesce the background truncator so IT cannot retire the epoch
    // between the commit and the assertions below.
    rt.txns().pauseTruncation();

    auto t = rt.atomicAsync([&](mtm::Txn &tx) {
        tx.writeT<uint64_t>(x, 7);
    });
    EXPECT_TRUE(t.pending());
    // Logically committed immediately: visible to this thread.
    EXPECT_EQ(*x, 0u) << "write-back is deferred to epoch retirement";
    rt.sync();
    EXPECT_EQ(*x, 7u) << "retirement wrote the value in place";
    // wait() after the epoch already retired must return immediately.
    rt.wait(t);
}

TEST(GroupCommit, AsyncWithoutSyncMayDropWholeEpoch)
{
    // Relaxed durability: an un-fenced epoch is dropped ATOMICALLY at
    // recovery — none of its transactions replay.
    TempDir dir;
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(gcCfg(dir.path()));
        uint64_t *x = pvar(rt, "x");
        uint64_t *y = pvar(rt, "y");
        // Keep the truncator's poll from sealing the open epoch before
        // the crash below — the point is to die with it un-fenced.
        rt.txns().pauseTruncation();
        rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 1); });
        (void)rt.atomicAsync(
            [&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 2); });
        (void)rt.atomicAsync(
            [&](mtm::Txn &tx) { tx.writeT<uint64_t>(y, 2); });
        c.crash(true); // epoch never sealed, never fenced
    }
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(gcCfg(dir.path()));
    EXPECT_EQ(*pvar(rt, "x"), 1u) << "sync txn survived";
    EXPECT_EQ(*pvar(rt, "y"), 0u) << "un-fenced async txn dropped";
}

TEST(GroupCommit, SyncDrainsMultipleEpochs)
{
    // Small batches force several sealed epochs plus one open one;
    // sync() is a barrier over ALL of them, and every ticket's wait()
    // returns after it.
    TempDir dir;
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(gcCfg(dir.path(), /*max_batch=*/2));
        auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
            "arr", 64 * sizeof(uint64_t), nullptr));
        std::vector<mtm::CommitTicket> tickets;
        for (int i = 0; i < 5; ++i) {
            tickets.push_back(rt.atomicAsync([&, i](mtm::Txn &tx) {
                // 8 words apart: disjoint stripes, no intra-epoch
                // conflicts.
                tx.writeT<uint64_t>(&arr[i * 8], uint64_t(100 + i));
            }));
        }
        rt.sync();
        for (auto t : tickets)
            rt.wait(t); // all must return immediately, none hang
        for (int i = 0; i < 5; ++i)
            EXPECT_EQ(arr[i * 8], uint64_t(100 + i));
        c.crash(true);
    }
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(gcCfg(dir.path()));
    auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
        "arr", 64 * sizeof(uint64_t), nullptr));
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(arr[i * 8], uint64_t(100 + i))
            << "synced epoch " << i << " must survive the crash";
}

TEST(GroupCommit, TicketSurvivesThreadExit)
{
    // A ticket issued on a thread that has since exited (its log lease
    // recycled) must still be waitable from another thread, and the
    // transaction must be durable after wait().
    TempDir dir;
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(gcCfg(dir.path()));
        uint64_t *x = pvar(rt, "x");
        mtm::CommitTicket t;
        std::thread worker([&] {
            t = rt.atomicAsync(
                [&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 9); });
        });
        worker.join(); // lease released; epoch still open
        EXPECT_TRUE(t.pending());
        rt.wait(t); // main thread drives the combine round itself
        EXPECT_EQ(*x, 9u);
        c.crash(true);
    }
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(gcCfg(dir.path()));
    EXPECT_EQ(*pvar(rt, "x"), 9u)
        << "waited ticket implies durability, issuer thread gone or not";
}

TEST(GroupCommit, CombinerAmortizesFences)
{
    // The tentpole claim: N threads committing concurrently pay ~1
    // fence per EPOCH, not >=2 per transaction.
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(gcCfg(dir.path()));
    auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
        "arr", 64 * 8 * sizeof(uint64_t), nullptr));

    constexpr int kThreads = 8;
    constexpr int kTxns = 200;
    const uint64_t fences0 = c.statsSnapshot().fences;
    // Start barrier: without it, early threads finish their whole loop
    // before late ones spawn and the measurement is of serial commits.
    // The END barrier matters just as much: a thread that returns drops
    // its log lease, and the combiner's grace heuristic counts live
    // leases — threads must stay alive until all are done, like the
    // long-lived workers of a real server.
    std::atomic<int> ready{0};
    std::atomic<int> done{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            for (int i = 0; i < kTxns; ++i) {
                rt.atomic([&](mtm::Txn &tx) {
                    uint64_t v = tx.readT<uint64_t>(&arr[t * 8]);
                    tx.writeT<uint64_t>(&arr[t * 8], v + 1);
                });
            }
            done.fetch_add(1);
            while (done.load() < kThreads)
                std::this_thread::yield();
        });
    }
    for (auto &th : ts)
        th.join();
    rt.txns().drainTruncation();
    const double per_txn =
        double(c.statsSnapshot().fences - fences0) / (kThreads * kTxns);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(arr[t * 8], uint64_t(kTxns));
    // Baseline pays 2 fences/txn (commit + truncation); the combiner
    // must amortize both sides below one even counting the drain.
    EXPECT_LT(per_txn, 1.0) << "combiner failed to amortize fences";
    EXPECT_GT(uint64_t(kThreads) * kTxns, rt.txns().combiner()->rounds())
        << "no round ever batched more than one member";
}

TEST(GroupCommit, ExplicitWaitsSealAtOnce)
{
    // The sealing contract, pinned by an exact count rather than wall
    // time: while a second thread holds an idle log lease (the signal
    // that makes a synchronous commit linger for peers), wait(ticket)
    // and sync() still seal the open epoch at once and take no grace
    // nap.  Synchronous atomic{} commits keep lingering.
    const bool statsWereOn = obs::enabled();
    obs::setEnabled(true);
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(gcCfg(dir.path()));
    uint64_t *x = pvar(rt, "x");
    uint64_t *y = pvar(rt, "y");
    // Only this thread's waits may seal the epochs below.
    rt.txns().pauseTruncation();

    std::atomic<bool> leased{false};
    std::atomic<bool> release{false};
    std::thread peer([&] {
        rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(y, 1); });
        leased = true;
        while (!release)
            std::this_thread::yield();
    });
    while (!leased)
        std::this_thread::yield();

    const uint64_t naps0 = statCounter("mtm.epoch_grace_naps");
    auto t = rt.atomicAsync([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 1); });
    ASSERT_TRUE(t.pending());
    rt.wait(t);
    EXPECT_EQ(*x, 1u);
    (void)rt.atomicAsync([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 2); });
    rt.sync();
    EXPECT_EQ(*x, 2u);
    EXPECT_EQ(statCounter("mtm.epoch_grace_naps"), naps0)
        << "an explicit wait napped before sealing";

    for (int i = 0; i < 4; ++i)
        rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 3 + i); });
    EXPECT_EQ(*x, 6u);
    EXPECT_GT(statCounter("mtm.epoch_grace_naps"), naps0)
        << "synchronous commits stopped lingering for their peer";

    release = true;
    peer.join();
    obs::setEnabled(statsWereOn);
}

TEST(GroupCommit, EpochBatchHistogramReportsExactMembers)
{
    // mtm.epoch_batch is an HDR histogram, exact below 64: one round of
    // five members reports a median of 5, not a power-of-two bucket's
    // upper bound (7).
    const bool statsWereOn = obs::enabled();
    obs::setEnabled(true);
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(gcCfg(dir.path()));
    auto *arr = static_cast<uint64_t *>(
        rt.regions().pstaticVar("arr", 64 * sizeof(uint64_t), nullptr));
    // Only this thread's sync() may seal the epoch below.
    rt.txns().pauseTruncation();
    rt.sync();
    obs::StatsRegistry::instance().resetAll();

    for (int i = 0; i < 5; ++i) {
        // 8 words apart: disjoint stripes, no intra-epoch conflicts.
        (void)rt.atomicAsync(
            [&, i](mtm::Txn &tx) { tx.writeT<uint64_t>(&arr[i * 8], 1); });
    }
    rt.sync();
    EXPECT_EQ(statCounter("mtm.epoch_seals"), 1u);
    EXPECT_EQ(statCounter("mtm.epoch_batch.count"), 1u);
    EXPECT_EQ(statCounter("mtm.epoch_batch.p50"), 5u);

    rt.txns().resumeTruncation();
    obs::setEnabled(statsWereOn);
}

TEST(GroupCommit, AsyncCommitLocksOneStripePerLine)
{
    // A stripe is one cache line: an async commit holds one lock per
    // line it wrote until its epoch retires, not one per word.
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(gcCfg(dir.path()));
    auto *arr = static_cast<uint8_t *>(
        rt.regions().pstaticVar("arr", 4 * 64, nullptr));
    // Only this thread's wait may retire the epoch below.
    rt.txns().pauseTruncation();

    // 100 B from 40 B into a line: 13 words over 3 lines.
    uint8_t *line = reinterpret_cast<uint8_t *>(
        (reinterpret_cast<uintptr_t>(arr) + 63) & ~uintptr_t(63));
    uint8_t *dst = line + 40;
    uint8_t val[100];
    for (size_t i = 0; i < sizeof(val); ++i)
        val[i] = uint8_t(i + 1);
    auto lockedStripes = [&] {
        auto &locks = rt.txns().locks();
        std::map<const mtm::LockTable::Word *, uint64_t> held;
        for (size_t i = 0; i < sizeof(val); ++i) {
            const auto &l = locks.lockFor(dst + i);
            const uint64_t w = l.load();
            if (mtm::LockTable::isLocked(w))
                held[&l] = w;
        }
        return held;
    };

    auto t = rt.atomicAsync(
        [&](mtm::Txn &tx) { tx.write(dst, val, sizeof(val)); });
    ASSERT_TRUE(t.pending());
    const auto held = lockedStripes();
    EXPECT_EQ(held.size(), 3u);
    // Each held word is marked retiring with the ticket's epoch.
    for (const auto &[lock, w] : held) {
        EXPECT_TRUE(mtm::LockTable::isRetiring(w));
        EXPECT_EQ(mtm::LockTable::epoch(w), t.epoch);
    }
    rt.wait(t);
    EXPECT_EQ(lockedStripes().size(), 0u);
    EXPECT_EQ(0, std::memcmp(dst, val, sizeof(val)));

    rt.txns().resumeTruncation();
}

TEST(GroupCommit, ReaderWaitsForRetiringEpoch)
{
    // A reader that meets the stripe of a committed async writer waits
    // for the writer's fence epoch instead of aborting: it reads the
    // new value, only once the epoch has retired, and nothing aborts.
    const bool statsWereOn = obs::enabled();
    obs::setEnabled(true);
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(gcCfg(dir.path()));
    uint64_t *x = pvar(rt, "x");
    // Only the reader may retire the epoch below.
    rt.txns().pauseTruncation();

    auto t = rt.atomicAsync([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 1); });
    ASSERT_TRUE(t.pending());
    const uint64_t aborts0 = rt.txns().stats().aborts;
    const uint64_t waits0 = statCounter("mtm.retiring_waits");
    uint64_t seen = 0;
    uint64_t retired = 0;
    std::thread reader([&] {
        rt.atomic([&](mtm::Txn &tx) {
            seen = tx.readT<uint64_t>(x);
            retired = rt.txns().combiner()->retiredEpoch();
        });
    });
    reader.join();
    EXPECT_EQ(seen, 1u);
    EXPECT_EQ(rt.txns().stats().aborts, aborts0);
    EXPECT_GE(retired, t.epoch) << "read the value before its fence";
    EXPECT_EQ(statCounter("mtm.retiring_waits"), waits0 + 1);

    rt.txns().resumeTruncation();
    obs::setEnabled(statsWereOn);
}

TEST(GroupCommit, WriterWaitsForRetiringEpoch)
{
    // Back-to-back async writes to one word from one thread: the second
    // transaction's write barrier meets the first one's retiring stripe,
    // seals its epoch and takes the stripe, without an abort.
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    Runtime rt(gcCfg(dir.path()));
    uint64_t *x = pvar(rt, "x");
    // Only this thread may retire the epochs below.
    rt.txns().pauseTruncation();

    const uint64_t aborts0 = rt.txns().stats().aborts;
    auto t1 = rt.atomicAsync([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 1); });
    auto t2 = rt.atomicAsync([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 2); });
    EXPECT_EQ(rt.txns().stats().aborts, aborts0);
    ASSERT_TRUE(t1.pending());
    ASSERT_TRUE(t2.pending());
    EXPECT_GT(t2.epoch, t1.epoch);
    rt.wait(t2);
    EXPECT_EQ(*x, 2u);

    rt.txns().resumeTruncation();
}

TEST(GroupCommit, TinyLogBackoffNudgesTruncator)
{
    // Regression for the append/combiner interaction: with a tiny log,
    // a committing thread can fill its slot while its own earlier
    // epochs' records still occupy it.  Space can only be reclaimed by
    // the truncator, which is gated on epoch retirement — the waiting
    // paths (append backoff, waitRetired, marker-log space waiter) must
    // keep nudging so the system never deadlocks.
    TempDir dir;
    scm::ScmContext c(scmCfg());
    scm::ScopedCtx guard(c);
    // 4 KiB slots: ~500 words, a handful of transactions per wrap.
    Runtime rt(gcCfg(dir.path(), /*max_batch=*/8,
                     /*log_slot_bytes=*/4096));
    uint64_t *x = pvar(rt, "x");
    for (int i = 0; i < 500; ++i) {
        if (i % 3 == 0) {
            (void)rt.atomicAsync(
                [&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, i); });
        } else {
            rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, i); });
        }
    }
    rt.sync();
    EXPECT_EQ(*x, 499u);
}

TEST(GroupCommit, RecoveryCountsEpochTxns)
{
    // The recovery result distinguishes fenced epoch members (replayed)
    // from un-fenced ones (dropped whole-epoch).
    TempDir dir;
    {
        scm::ScmContext c(scmCfg());
        scm::ScopedCtx guard(c);
        Runtime rt(gcCfg(dir.path()));
        uint64_t *x = pvar(rt, "x");
        uint64_t *y = pvar(rt, "y");
        rt.txns().pauseTruncation(); // keep y's epoch un-fenced below
        (void)rt.atomicAsync(
            [&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 5); });
        rt.sync(); // fenced epoch: must replay
        (void)rt.atomicAsync(
            [&](mtm::Txn &tx) { tx.writeT<uint64_t>(y, 6); });
        c.crash(true); // un-fenced epoch: must drop
    }
    scm::ScmContext c2(scmCfg());
    scm::ScopedCtx guard2(c2);
    Runtime rt(gcCfg(dir.path()));
    EXPECT_EQ(*pvar(rt, "x"), 5u);
    EXPECT_EQ(*pvar(rt, "y"), 0u);
    const auto st = rt.txns().stats();
    EXPECT_GE(st.replayed_txns, 1u);
}
