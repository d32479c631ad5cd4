/**
 * @file
 * Tests for the persistent heap: the Hoard-style superblock allocator,
 * the dlmalloc-style big-block allocator, the pmalloc/pfree facade, and
 * crash-atomicity of allocation (the "no leaked allocation" guarantee
 * of paper section 3.4).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <set>
#include <vector>

#include "heap/big_alloc.h"
#include "heap/pheap.h"
#include "heap/superblock_heap.h"
#include "log/atomic_redo.h"
#include "region/region_table.h"
#include "scm/scm.h"
#include "tests/test_util.h"

namespace scm = mnemosyne::scm;
namespace region = mnemosyne::region;
namespace heap = mnemosyne::heap;
namespace mlog = mnemosyne::log;
using heap::BigAlloc;
using heap::PHeap;
using heap::SuperblockHeap;
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

struct Arena {
    explicit Arena(size_t bytes) : bytes_(bytes), mem((bytes + 7) / 8, 0) {}
    void *data() { return mem.data(); }
    size_t size() const { return bytes_; }
    size_t bytes_;
    std::vector<uint64_t> mem;
};

} // namespace

TEST(AtomicRedo, AppliesAllWrites)
{
    scm::ScmContext c(scmCfg());
    Arena a(8192);
    auto log = mlog::Rawl::create(c, a.data(), a.size());
    mlog::AtomicRedo redo(*log);

    uint64_t x = 0, y = 0;
    const mlog::WordWrite writes[] = {{&x, 11}, {&y, 22}};
    redo.apply(writes);
    EXPECT_EQ(x, 11u);
    EXPECT_EQ(y, 22u);
    c.crash();
    EXPECT_EQ(x, 11u) << "applied writes must be durable";
    EXPECT_EQ(y, 22u);
}

TEST(AtomicRedo, CrashAtAnyEventIsAllOrNothing)
{
    // Sweep every crash point through one apply(): after recovery the
    // two words are either both old or both new.
    for (uint64_t crash_at = 1; crash_at < 40; ++crash_at) {
        scm::ScmContext c(
            scmCfg(scm::CrashPersistMode::kRandomSubset, crash_at * 7919));
        Arena a(8192);
        auto log = mlog::Rawl::create(c, a.data(), a.size());
        c.persistAll();

        static uint64_t x, y;
        x = 1;
        y = 2;
        const uint64_t base_events = c.eventCount();
        c.setWriteHook([&](uint64_t n, scm::ScmContext::Event, const void *,
                           size_t) {
            if (n >= base_events + crash_at)
                throw scm::CrashNow{n};
        });
        bool crashed = false;
        try {
            mlog::AtomicRedo redo(*log);
            const mlog::WordWrite writes[] = {{&x, 11}, {&y, 22}};
            redo.apply(writes);
        } catch (const scm::CrashNow &) {
            crashed = true;
        }
        c.setWriteHook(nullptr);
        if (!crashed)
            break; // ran to completion: later crash points are no-ops
        c.crash();

        auto relog = mlog::Rawl::open(c, a.data());
        ASSERT_NE(relog, nullptr);
        mlog::AtomicRedo redo(*relog);
        redo.recover();
        const bool both_old = (x == 1 && y == 2);
        const bool both_new = (x == 11 && y == 22);
        EXPECT_TRUE(both_old || both_new)
            << "crash_at=" << crash_at << " x=" << x << " y=" << y;
    }
}

TEST(SuperblockHeap, AllocateFreeRoundTrip)
{
    scm::ScmContext c(scmCfg());
    Arena a(SuperblockHeap::footprint(16));
    auto h = SuperblockHeap::create(c, a.data(), a.size());

    static void *p = nullptr;
    void *got = h->allocate(100, &p);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got, p);
    EXPECT_TRUE(h->owns(p));
    EXPECT_EQ(h->blockSize(p), 128u) << "100 B rounds to the 128 B class";
    std::memset(p, 0xcd, 100);
    h->free(&p);
    EXPECT_EQ(p, nullptr);
}

TEST(SuperblockHeap, DistinctAddressesAndClassSegregation)
{
    scm::ScmContext c(scmCfg());
    Arena a(SuperblockHeap::footprint(32));
    auto h = SuperblockHeap::create(c, a.data(), a.size());

    std::set<void *> seen;
    static void *p;
    for (size_t sz : {16, 64, 100, 1000, 4096}) {
        for (int i = 0; i < 20; ++i) {
            ASSERT_NE(h->allocate(sz, &p), nullptr);
            EXPECT_TRUE(seen.insert(p).second) << "duplicate block";
            EXPECT_GE(h->blockSize(p), sz);
        }
    }
    EXPECT_EQ(h->stats().blocks_allocated, 100u);
}

TEST(SuperblockHeap, RejectsOversized)
{
    scm::ScmContext c(scmCfg());
    Arena a(SuperblockHeap::footprint(8));
    auto h = SuperblockHeap::create(c, a.data(), a.size());
    static void *p;
    EXPECT_EQ(h->allocate(SuperblockHeap::kMaxBlock + 1, &p), nullptr);
}

TEST(SuperblockHeap, ExhaustionReturnsNull)
{
    scm::ScmContext c(scmCfg());
    Arena a(SuperblockHeap::footprint(2));
    auto h = SuperblockHeap::create(c, a.data(), a.size());
    static void *p;
    size_t got = 0;
    while (h->allocate(4096, &p) != nullptr)
        ++got;
    EXPECT_EQ(got, 2u * (8192 / 4096));
}

TEST(SuperblockHeap, FreeMakesBlocksReusable)
{
    scm::ScmContext c(scmCfg());
    Arena a(SuperblockHeap::footprint(2));
    auto h = SuperblockHeap::create(c, a.data(), a.size());
    static void *p;
    std::vector<void *> blocks;
    while (h->allocate(512, &p) != nullptr)
        blocks.push_back(p);
    for (void *b : blocks) {
        static void *q;
        q = b;
        h->free(&q);
    }
    size_t again = 0;
    while (h->allocate(512, &p) != nullptr)
        ++again;
    EXPECT_EQ(again, blocks.size());
}

TEST(SuperblockHeap, StateSurvivesReopenAndScavenge)
{
    scm::ScmContext c(scmCfg());
    Arena a(SuperblockHeap::footprint(16));
    static void *p1, *p2;
    {
        auto h = SuperblockHeap::create(c, a.data(), a.size());
        ASSERT_NE(h->allocate(64, &p1), nullptr);
        ASSERT_NE(h->allocate(64, &p2), nullptr);
        std::memset(p1, 0x11, 64);
    }
    c.persistAll();
    auto h = SuperblockHeap::open(c, a.data());
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->stats().blocks_allocated, 2u);
    // Allocations after reopen must not collide with live blocks.
    static void *p3;
    ASSERT_NE(h->allocate(64, &p3), nullptr);
    EXPECT_NE(p3, p1);
    EXPECT_NE(p3, p2);
    // Freeing memory allocated in the previous "invocation" works.
    h->free(&p1);
    EXPECT_EQ(h->stats().blocks_allocated, 2u);
}

class HeapCrashProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(HeapCrashProperty, AllocationNeverLeaksOrDoublesAcrossCrash)
{
    // Crash at a pseudo-random event during a run of pmalloc/pfree; on
    // recovery, the persistent pointers and the bitmap agree: every
    // non-null pointer is a live, distinct block (no leak of a block
    // without a reachable pointer is possible because pmalloc writes
    // the pointer atomically with the bitmap bit).
    const uint64_t seed = GetParam();
    scm::ScmContext c(scmCfg(scm::CrashPersistMode::kRandomSubset, seed));
    Arena a(SuperblockHeap::footprint(16));

    // Pointer slots live in "persistent memory" (this arena outlives the
    // crash) — 16 roots.
    static void *roots[16];
    std::memset(roots, 0, sizeof(roots));

    auto h = SuperblockHeap::create(c, a.data(), a.size());
    c.persistAll();

    std::mt19937_64 rng(seed);
    const uint64_t crash_at = c.eventCount() + 20 + rng() % 400;
    c.setWriteHook([&](uint64_t n, scm::ScmContext::Event, const void *,
                       size_t) {
        if (n >= crash_at)
            throw scm::CrashNow{n};
    });
    try {
        for (int op = 0; op < 200; ++op) {
            const size_t slot = rng() % 16;
            if (roots[slot] == nullptr) {
                h->allocate(16 + rng() % 200, &roots[slot]);
            } else {
                h->free(&roots[slot]);
            }
        }
    } catch (const scm::CrashNow &) {
    }
    c.setWriteHook(nullptr);
    c.crash();

    auto re = SuperblockHeap::open(c, a.data());
    ASSERT_NE(re, nullptr);

    // Every root must be null or point to a distinct allocated block.
    std::set<void *> live;
    for (void *r : roots) {
        if (r == nullptr)
            continue;
        EXPECT_TRUE(re->owns(r));
        EXPECT_TRUE(live.insert(r).second) << "two roots share a block";
    }
    EXPECT_EQ(re->stats().blocks_allocated, live.size())
        << "bitmap and reachable pointers disagree: leak or lost block";
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapCrashProperty,
                         ::testing::Range<uint64_t>(0, 48));

TEST(BigAlloc, AllocateFreeRoundTrip)
{
    scm::ScmContext c(scmCfg());
    Arena a(1 << 20);
    auto b = BigAlloc::create(c, a.data(), a.size());
    static void *p;
    ASSERT_NE(b->allocate(100 * 1024, &p), nullptr);
    EXPECT_TRUE(b->owns(p));
    EXPECT_GE(b->blockSize(p), 100u * 1024);
    std::memset(p, 0xee, 100 * 1024);
    b->free(&p);
    EXPECT_EQ(p, nullptr);
    EXPECT_EQ(b->stats().chunks_in_use, 0u);
}

TEST(BigAlloc, SplitAndCoalesce)
{
    scm::ScmContext c(scmCfg());
    Arena a(1 << 20);
    auto b = BigAlloc::create(c, a.data(), a.size());
    static void *p1, *p2, *p3;
    ASSERT_NE(b->allocate(64 * 1024, &p1), nullptr);
    ASSERT_NE(b->allocate(64 * 1024, &p2), nullptr);
    ASSERT_NE(b->allocate(64 * 1024, &p3), nullptr);
    EXPECT_EQ(b->stats().chunks_in_use, 3u);

    // Free middle, then first: they must coalesce into one free chunk
    // adjacent to the wilderness-side chunk after p3.
    b->free(&p2);
    b->free(&p1);
    const auto s = b->stats();
    EXPECT_EQ(s.chunks_in_use, 1u);
    EXPECT_EQ(s.chunks_free, 2u) << "front pair coalesced, tail separate";

    b->free(&p3);
    EXPECT_EQ(b->stats().chunks_free, 1u) << "everything coalesced";
}

TEST(BigAlloc, ExhaustionReturnsNull)
{
    scm::ScmContext c(scmCfg());
    Arena a(256 * 1024);
    auto b = BigAlloc::create(c, a.data(), a.size());
    static void *p;
    EXPECT_EQ(b->allocate(1 << 20, &p), nullptr);
}

TEST(BigAlloc, SurvivesReopen)
{
    scm::ScmContext c(scmCfg());
    Arena a(1 << 20);
    static void *p1, *p2;
    {
        auto b = BigAlloc::create(c, a.data(), a.size());
        ASSERT_NE(b->allocate(10000, &p1), nullptr);
        ASSERT_NE(b->allocate(20000, &p2), nullptr);
        std::memset(p1, 7, 10000);
    }
    c.persistAll();
    auto b = BigAlloc::open(c, a.data());
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->stats().chunks_in_use, 2u);
    b->free(&p1);
    EXPECT_EQ(b->stats().chunks_in_use, 1u);
    static void *p3;
    ASSERT_NE(b->allocate(5000, &p3), nullptr);
    EXPECT_NE(p3, p2);
}

class BigAllocCrashProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BigAllocCrashProperty, ChunkChainConsistentAfterCrash)
{
    const uint64_t seed = GetParam();
    scm::ScmContext c(scmCfg(scm::CrashPersistMode::kRandomSubset, seed));
    Arena a(1 << 20);
    static void *roots[8];
    std::memset(roots, 0, sizeof(roots));
    auto b = BigAlloc::create(c, a.data(), a.size());
    c.persistAll();

    std::mt19937_64 rng(seed);
    const uint64_t crash_at = c.eventCount() + 10 + rng() % 200;
    c.setWriteHook([&](uint64_t n, scm::ScmContext::Event, const void *,
                       size_t) {
        if (n >= crash_at)
            throw scm::CrashNow{n};
    });
    try {
        for (int op = 0; op < 60; ++op) {
            const size_t slot = rng() % 8;
            if (roots[slot] == nullptr) {
                b->allocate(4096 + rng() % 50000, &roots[slot]);
            } else {
                b->free(&roots[slot]);
            }
        }
    } catch (const scm::CrashNow &) {
    }
    c.setWriteHook(nullptr);
    c.crash();

    // open() asserts the chunk chain is well formed while walking it.
    auto re = BigAlloc::open(c, a.data());
    ASSERT_NE(re, nullptr);
    std::set<void *> live;
    for (void *r : roots) {
        if (r) {
            EXPECT_TRUE(re->owns(r));
            EXPECT_TRUE(live.insert(r).second);
        }
    }
    EXPECT_EQ(re->stats().chunks_in_use, live.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigAllocCrashProperty,
                         ::testing::Range<uint64_t>(0, 48));

TEST(PHeap, RoutesBySizeAndPersistsAcrossRestart)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    void *small_before, *big_before;
    {
        region::RegionManager mgr(c, smallRegionConfig(dir.path()));
        region::RegionLayer rl(mgr);
        PHeap ph(rl, 1 << 20, 1 << 20);

        auto **sp = static_cast<void **>(
            rl.pstaticVar("small_root", sizeof(void *), nullptr));
        auto **bp = static_cast<void **>(
            rl.pstaticVar("big_root", sizeof(void *), nullptr));
        ph.pmalloc(128, sp);
        ph.pmalloc(100 * 1024, bp);
        ASSERT_NE(*sp, nullptr);
        ASSERT_NE(*bp, nullptr);
        small_before = *sp;
        big_before = *bp;
        std::memset(*sp, 0x42, 128);
        std::memset(*bp, 0x43, 100 * 1024);
        c.persistAll();
    }
    region::RegionManager mgr(c, smallRegionConfig(dir.path()));
    region::RegionLayer rl(mgr);
    PHeap ph(rl, 1 << 20, 1 << 20);
    auto **sp = static_cast<void **>(
        rl.pstaticVar("small_root", sizeof(void *), nullptr));
    auto **bp = static_cast<void **>(
        rl.pstaticVar("big_root", sizeof(void *), nullptr));
    EXPECT_EQ(*sp, small_before);
    EXPECT_EQ(*bp, big_before);
    EXPECT_EQ(static_cast<uint8_t *>(*sp)[127], 0x42);
    EXPECT_EQ(static_cast<uint8_t *>(*bp)[100 * 1024 - 1], 0x43);
    // Memory allocated in one invocation can be freed in the next.
    ph.pfree(sp);
    ph.pfree(bp);
    EXPECT_EQ(*sp, nullptr);
    EXPECT_EQ(*bp, nullptr);
}

TEST(PHeap, SmallOverflowFallsBackToBig)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    region::RegionManager mgr(c, smallRegionConfig(dir.path()));
    region::RegionLayer rl(mgr);
    // Tiny small heap: a couple of superblocks only.
    PHeap ph(rl, SuperblockHeap::footprint(2), 4 << 20);
    auto **root = static_cast<void **>(
        rl.pstaticVar("root", sizeof(void *), nullptr));
    // Exhaust the 4 KB class, then keep allocating: must not throw.
    for (int i = 0; i < 32; ++i) {
        ph.pmalloc(4096, root);
        ASSERT_NE(*root, nullptr);
    }
}

TEST(PHeap, PfreeOfForeignPointerThrows)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    region::RegionManager mgr(c, smallRegionConfig(dir.path()));
    region::RegionLayer rl(mgr);
    PHeap ph(rl, 1 << 20, 1 << 20);
    static int x;
    static void *p;
    p = &x;
    EXPECT_THROW(ph.pfree(&p), std::invalid_argument);
}
