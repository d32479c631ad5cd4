/**
 * @file
 * Integration tests: every layer of the system working together in one
 * runtime — multiple persistent structures sharing the heap and the
 * transaction system, restart endurance, SCM-zone pressure (swap)
 * under live heap traffic, and crashes during mixed workloads.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "ds/pavl_tree.h"
#include "ds/pbp_tree.h"
#include "ds/phash_table.h"
#include "ds/prb_tree.h"
#include "runtime/runtime.h"
#include "scm/scm.h"
#include "tests/test_util.h"

namespace scm = mnemosyne::scm;
namespace ds = mnemosyne::ds;
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
    rc.small_heap_bytes = 8 << 20;
    rc.big_heap_bytes = 8 << 20;
    rc.txn.log_slots = 8;
    rc.txn.log_slot_bytes = 256 * 1024;
    return rc;
}

} // namespace

TEST(Integration, FourStructuresShareOneRuntimeAcrossRestart)
{
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    {
        Runtime rt(rtCfg(c, dir.path()));
        ds::PHashTable ht(rt, "i_ht", 256);
        ds::PAvlTree avl(rt, "i_avl");
        ds::PRbTree rb(rt, "i_rb");
        ds::PBpTree bp(rt, "i_bp");

        uint8_t payload[ds::PRbTree::kPayloadBytes] = {42};
        for (int i = 0; i < 300; ++i) {
            const std::string k = "key" + std::to_string(i);
            ht.put(k, "h" + std::to_string(i));
            avl.put(k, "a" + std::to_string(i));
            rb.put(uint64_t(i), payload, sizeof(payload));
            bp.put(k, "b" + std::to_string(i));
        }
    }
    Runtime rt(rtCfg(c, dir.path()));
    ds::PHashTable ht(rt, "i_ht", 256);
    ds::PAvlTree avl(rt, "i_avl");
    ds::PRbTree rb(rt, "i_rb");
    ds::PBpTree bp(rt, "i_bp");
    EXPECT_EQ(ht.size(), 300u);
    EXPECT_EQ(avl.size(), 300u);
    EXPECT_EQ(rb.size(), 300u);
    EXPECT_EQ(bp.size(), 300u);
    EXPECT_NO_THROW(rb.checkInvariants());
    EXPECT_NO_THROW(bp.checkInvariants());
    std::string v;
    ASSERT_TRUE(ht.get("key123", &v));
    EXPECT_EQ(v, "h123");
    ASSERT_TRUE(avl.get("key123", &v));
    EXPECT_EQ(v, "a123");
    ASSERT_TRUE(bp.get("key123", &v));
    EXPECT_EQ(v, "b123");
}

TEST(Integration, TenRestartCyclesAccumulateState)
{
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    for (int cycle = 0; cycle < 10; ++cycle) {
        Runtime rt(rtCfg(c, dir.path()));
        ds::PBpTree bp(rt, "i_bp");
        EXPECT_EQ(bp.size(), size_t(cycle) * 50) << "cycle " << cycle;
        for (int i = 0; i < 50; ++i) {
            bp.put("c" + std::to_string(cycle) + "k" + std::to_string(i),
                   std::string(40, char('a' + cycle)));
        }
        EXPECT_NO_THROW(bp.checkInvariants());
        EXPECT_EQ(rt.reincarnation().reclaimed_allocs, 0u)
            << "clean shutdowns must not leave staged allocations";
    }
    Runtime rt(rtCfg(c, dir.path()));
    ds::PBpTree bp(rt, "i_bp");
    EXPECT_EQ(bp.size(), 500u);
    std::string v;
    ASSERT_TRUE(bp.get("c7k49", &v));
    EXPECT_EQ(v, std::string(40, 'h'));
}

TEST(Integration, HeapTrafficUnderScmZonePressure)
{
    // A zone smaller than the working set forces page evictions (swap
    // to backing files) while transactions and the heap are active.
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    auto cfg = rtCfg(c, dir.path());
    cfg.region.scm_capacity = 24 << 20; // < heaps + logs + static
    Runtime rt(cfg);
    ds::PHashTable ht(rt, "i_press", 512);
    for (int i = 0; i < 400; ++i)
        ht.put("key" + std::to_string(i), std::string(1000, char('a' + i % 26)));

    // Force explicit eviction of the heap region, then keep going.
    const auto heap_region =
        rt.regions().findByFlags(mnemosyne::region::kRegionHeap);
    rt.regionManager().evictRange(
        reinterpret_cast<uintptr_t>(heap_region.addr), heap_region.len);
    EXPECT_GT(rt.regionManager().zoneStats().evictions, 0u);

    std::string v;
    for (int i = 0; i < 400; ++i) {
        ASSERT_TRUE(ht.get("key" + std::to_string(i), &v)) << i;
        EXPECT_EQ(v.size(), 1000u);
    }
    ht.put("after-evict", "ok");
    ASSERT_TRUE(ht.get("after-evict", &v));
}

class MixedCrash : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MixedCrash, AllStructuresConsistentAfterCrash)
{
    const uint64_t seed = GetParam();
    TempDir dir;
    size_t ht_done = 0, bp_done = 0, rb_done = 0;
    {
        scm::ScmConfig sc;
        sc.crash_mode = scm::CrashPersistMode::kRandomSubset;
        sc.crash_seed = seed;
        scm::ScmContext c(sc);
        Runtime rt(rtCfg(c, dir.path()));
        ds::PHashTable ht(rt, "m_ht", 64);
        ds::PBpTree bp(rt, "m_bp");
        ds::PRbTree rb(rt, "m_rb");

        std::mt19937_64 rng(seed);
        const uint64_t crash_at = c.eventCount() + 300 + rng() % 6000;
        c.setWriteHook([&](uint64_t n, scm::ScmContext::Event, const void *,
                           size_t) {
            if (n >= crash_at)
                throw scm::CrashNow{n};
        });
        uint8_t payload[ds::PRbTree::kPayloadBytes] = {};
        try {
            for (int i = 0; i < 200; ++i) {
                const std::string k = "k" + std::to_string(i);
                ht.put(k, std::string(30, 'h'));
                ++ht_done;
                bp.put(k, std::string(30, 'b'));
                ++bp_done;
                rb.put(uint64_t(i), payload, 8);
                ++rb_done;
            }
        } catch (const scm::CrashNow &) {
        }
        c.setWriteHook(nullptr);
        c.crash(true);
    }
    scm::ScmContext c2{scm::ScmConfig{}};
    Runtime rt(rtCfg(c2, dir.path()));
    ds::PHashTable ht(rt, "m_ht", 64);
    ds::PBpTree bp(rt, "m_bp");
    ds::PRbTree rb(rt, "m_rb");

    EXPECT_NO_THROW(bp.checkInvariants()) << "seed " << seed;
    EXPECT_NO_THROW(rb.checkInvariants()) << "seed " << seed;
    // Every completed op visible; the crashed op may be too.
    std::string v;
    for (size_t i = 0; i < ht_done; ++i)
        ASSERT_TRUE(ht.get("k" + std::to_string(i), &v)) << "seed " << seed;
    for (size_t i = 0; i < bp_done; ++i)
        ASSERT_TRUE(bp.get("k" + std::to_string(i), &v)) << "seed " << seed;
    for (size_t i = 0; i < rb_done; ++i)
        ASSERT_TRUE(rb.get(uint64_t(i), nullptr)) << "seed " << seed;
    EXPECT_LE(ht.size(), ht_done + 1);
    EXPECT_GE(ht.size(), ht_done);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedCrash, ::testing::Range<uint64_t>(0, 16));

TEST(Integration, PHashTableAblationModesAgree)
{
    // The streamed-value optimization must be functionally identical to
    // the instrumented mode (it is a performance ablation only).
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    Runtime rt(rtCfg(c, dir.path()));
    ds::PHashTable a(rt, "ab_a", 64, true);
    ds::PHashTable b(rt, "ab_b", 64, false);
    std::mt19937_64 rng(5);
    for (int i = 0; i < 300; ++i) {
        const std::string k = "k" + std::to_string(rng() % 60);
        if (rng() % 3 == 0) {
            EXPECT_EQ(a.del(k), b.del(k));
        } else {
            const std::string val(1 + rng() % 100, char('a' + i % 26));
            a.put(k, val);
            b.put(k, val);
        }
    }
    EXPECT_EQ(a.size(), b.size());
    std::string va, vb;
    for (int i = 0; i < 60; ++i) {
        const std::string k = "k" + std::to_string(i);
        ASSERT_EQ(a.get(k, &va), b.get(k, &vb)) << k;
        EXPECT_EQ(va, vb);
    }
}
