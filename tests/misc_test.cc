/**
 * @file
 * Unit coverage for smaller pieces: lock-word encoding, latency
 * accounting, RAWL sizing math, transaction statistics and conflict
 * behaviour, and API misuse guards.
 */

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "ds/phash_table.h"
#include "log/rawl.h"
#include "mtm/lock_table.h"
#include "runtime/runtime.h"
#include "scm/latency.h"
#include "scm/scm.h"
#include "tests/test_util.h"

namespace scm = mnemosyne::scm;
namespace mtm = mnemosyne::mtm;
namespace mlog = mnemosyne::log;
using mnemosyne::Runtime;
using mnemosyne::RuntimeConfig;
using mnemosyne::test::TempDir;
using mnemosyne::test::smallRegionConfig;

namespace {

RuntimeConfig
rtCfg(scm::ScmContext &c, const std::string &dir)
{
    RuntimeConfig rc;
    rc.scm_context = &c;
    rc.region = smallRegionConfig(dir);
    rc.small_heap_bytes = 4 << 20;
    rc.big_heap_bytes = 4 << 20;
    rc.txn.log_slots = 8;
    rc.txn.log_slot_bytes = 128 * 1024;
    return rc;
}

} // namespace

TEST(LockTable, EncodingRoundTrips)
{
    EXPECT_FALSE(mtm::LockTable::isLocked(mtm::LockTable::makeVersion(5)));
    EXPECT_TRUE(mtm::LockTable::isLocked(mtm::LockTable::makeLocked(7)));
    EXPECT_EQ(mtm::LockTable::version(mtm::LockTable::makeVersion(123)),
              123u);
    EXPECT_TRUE(mtm::LockTable::ownedBy(mtm::LockTable::makeLocked(99), 99));
    // A retiring word (a committed async transaction's stripe, held
    // until its fence epoch retires) is locked and carries its epoch...
    const uint64_t r = mtm::LockTable::makeRetiring(42);
    EXPECT_TRUE(mtm::LockTable::isLocked(r));
    EXPECT_TRUE(mtm::LockTable::isRetiring(r));
    EXPECT_EQ(mtm::LockTable::epoch(r), 42u);
    // ...and no transaction owns it, not even one whose id equals the
    // epoch.
    EXPECT_FALSE(mtm::LockTable::ownedBy(r, 42));
    // An owner-locked word is owned by its owner alone and not retiring.
    const uint64_t o = mtm::LockTable::makeLocked(42);
    EXPECT_TRUE(mtm::LockTable::ownedBy(o, 42));
    EXPECT_FALSE(mtm::LockTable::ownedBy(o, 43));
    EXPECT_FALSE(mtm::LockTable::isRetiring(o));
    EXPECT_FALSE(mtm::LockTable::isRetiring(mtm::LockTable::makeVersion(3)));
}

TEST(LockTable, SameStripeSameLockDifferentWordsSpread)
{
    mtm::LockTable t(10);
    alignas(64) uint8_t lines[256 * 64];
    // Every byte of one 64-byte line maps to the line's one lock...
    for (size_t b = 0; b < 64; ++b)
        EXPECT_EQ(&t.lockFor(&lines[0]), &t.lockFor(&lines[b])) << b;
    // ...and adjacent lines rarely collide: count distinct locks.
    std::set<mtm::LockTable::Word *> distinct;
    for (size_t l = 0; l < 256; ++l)
        distinct.insert(&t.lockFor(&lines[l * 64]));
    EXPECT_GT(distinct.size(), 200u) << "hash must spread adjacent lines";
}

TEST(LatencyAccount, VirtualModeAccumulatesWithoutSpinning)
{
    scm::LatencyAccount acc;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 1000; ++i)
        acc.charge(scm::LatencyMode::kVirtual, 1000000); // 1 ms each
    const auto wall = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(acc.totalNs(), 1000ull * 1000000);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(wall)
                  .count(),
              500)
        << "virtual charging must not actually wait";
    acc.reset();
    EXPECT_EQ(acc.totalNs(), 0u);
}

TEST(Rawl, FootprintAndCapacityMath)
{
    // footprint is monotonic and create() accepts exactly what
    // footprint promises.
    scm::ScmContext c{scm::ScmConfig{}};
    for (size_t words : {16, 100, 1000}) {
        const size_t bytes = mlog::Rawl::footprint(words);
        std::vector<uint64_t> arena((bytes + 7) / 8, 0);
        auto log = mlog::Rawl::create(c, arena.data(), bytes);
        EXPECT_EQ(log->capacityWords(), words);
        const size_t max_rec = mlog::Rawl::maxRecordWords(words);
        ASSERT_GT(max_rec, 0u);
        std::vector<uint64_t> rec(max_rec, 1);
        EXPECT_TRUE(log->tryAppend(rec.data(), rec.size()))
            << "maxRecordWords must fit an empty log of " << words;
    }
}

TEST(Mtm, StatsCountCommitsAbortsAndReadonly)
{
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    Runtime rt(rtCfg(c, dir.path()));
    auto *x = static_cast<uint64_t *>(
        rt.regions().pstaticVar("x", 8, nullptr));

    rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, 1); });
    rt.atomic([&](mtm::Txn &tx) { (void)tx.readT<uint64_t>(x); });
    try {
        rt.atomic([&](mtm::Txn &tx) {
            tx.writeT<uint64_t>(x, 2);
            throw std::runtime_error("bail");
        });
    } catch (const std::runtime_error &) {
    }
    const auto s = rt.txns().stats();
    EXPECT_EQ(s.commits, 1u);
    EXPECT_EQ(s.readonly_commits, 1u);
    EXPECT_EQ(s.aborts, 1u);
}

TEST(Mtm, CurrentReflectsActiveTransaction)
{
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    Runtime rt(rtCfg(c, dir.path()));
    EXPECT_EQ(rt.txns().current(), nullptr);
    rt.atomic([&](mtm::Txn &tx) {
        EXPECT_EQ(rt.txns().current(), &tx);
    });
    EXPECT_EQ(rt.txns().current(), nullptr);
}

TEST(Mtm, ConflictsAreCountedAndResolved)
{
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    Runtime rt(rtCfg(c, dir.path()));
    auto *x = static_cast<uint64_t *>(
        rt.regions().pstaticVar("hot", 8, nullptr));

    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t) {
        ts.emplace_back([&] {
            for (int i = 0; i < 300; ++i) {
                rt.atomic([&](mtm::Txn &tx) {
                    tx.writeT<uint64_t>(x, tx.readT<uint64_t>(x) + 1);
                });
            }
        });
    }
    for (auto &th : ts)
        th.join();
    EXPECT_EQ(*x, 1200u);
    // With a single hot word, the commits succeeded regardless of how
    // many conflict-aborts the schedule produced.
    EXPECT_GE(rt.txns().stats().commits, 1200u);
}

TEST(Runtime, UsableSizeAndOwns)
{
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    Runtime rt(rtCfg(c, dir.path()));
    auto **p = static_cast<void **>(
        rt.regions().pstaticVar("p", sizeof(void *), nullptr));
    rt.pmalloc(100, p);
    EXPECT_TRUE(rt.heap().owns(*p));
    EXPECT_GE(rt.heap().usableSize(*p), 100u);
    int local;
    EXPECT_FALSE(rt.heap().owns(&local));
    rt.pfree(p);
}

/** A runtime on a private, unpublished emulator — the shape of a crash
 *  sweep trial.  A thread the runtime did not start still writes
 *  through that emulator: every layer holds the context it was built
 *  on instead of looking one up per thread. */
TEST(Runtime, SpawnedThreadWritesThroughItsRuntimesEmulator)
{
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    Runtime rt(rtCfg(c, dir.path()));
    auto *x = static_cast<uint64_t *>(
        rt.regions().pstaticVar("spawned_x", 8, nullptr));

    const uint64_t published0 = scm::ctx().statsSnapshot().fences;
    const uint64_t fences0 = c.statsSnapshot().fences;
    std::thread t([&] {
        for (uint64_t i = 0; i < 10; ++i)
            rt.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, i); });
    });
    t.join();
    // Synchronous truncation: a log fence and a truncation fence per
    // commit, all on the runtime's emulator and none on the published one.
    EXPECT_GE(c.statsSnapshot().fences - fences0, 20u);
    EXPECT_EQ(scm::ctx().statsSnapshot().fences - published0, 0u);
}

/** Two runtimes alive at once, each on its own emulator: commits
 *  through one reach only that one's emulator. */
TEST(Runtime, TwoRuntimesKeepTheirOwnEmulators)
{
    TempDir dir_a, dir_b;
    scm::ScmContext a{scm::ScmConfig{}};
    scm::ScmContext b{scm::ScmConfig{}};
    Runtime rt_a(rtCfg(a, dir_a.path()));
    RuntimeConfig cfg_b = rtCfg(b, dir_b.path());
    cfg_b.region.va_base += cfg_b.region.va_reserve; // past A's range
    Runtime rt_b(cfg_b);
    auto *x = static_cast<uint64_t *>(
        rt_a.regions().pstaticVar("two_x", 8, nullptr));

    const uint64_t a0 = a.statsSnapshot().fences;
    const uint64_t b0 = b.statsSnapshot().fences;
    for (uint64_t i = 0; i < 10; ++i)
        rt_a.atomic([&](mtm::Txn &tx) { tx.writeT<uint64_t>(x, i); });
    EXPECT_GE(a.statsSnapshot().fences - a0, 20u);
    EXPECT_EQ(b.statsSnapshot().fences - b0, 0u);
}

TEST(PHashTable, LargeValuesThroughBigAllocator)
{
    // Values beyond the superblock classes route through the dlmalloc
    // fallback transparently.
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    Runtime rt(rtCfg(c, dir.path()));
    mnemosyne::ds::PHashTable ht(rt, "big_ht", 16);
    const std::string big(20000, 'B');
    ht.put("big", big);
    std::string v;
    ASSERT_TRUE(ht.get("big", &v));
    EXPECT_EQ(v, big);
    EXPECT_GT(rt.heap().stats().big.chunks_in_use, 0u);
    ht.del("big");
}
