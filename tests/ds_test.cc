/**
 * @file
 * Tests for the persistent data structures (hash table, AVL tree,
 * red-black tree, B+ tree) and the volatile serialization baseline:
 * CRUD correctness, structural invariants, persistence across restart,
 * concurrency, and adversarial crash sweeps with full-structure
 * verification.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ds/pavl_tree.h"
#include "ds/pbp_tree.h"
#include "ds/phash_table.h"
#include "ds/prb_tree.h"
#include "ds/vrb_tree.h"
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

// ---------------------------------------------------------------- PHashTable

TEST(PHashTable, PutGetDelAgainstModel)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    Runtime rt(rtCfg(c, dir.path()));
    ds::PHashTable ht(rt, "ht", 64);

    std::map<std::string, std::string> model;
    std::mt19937_64 rng(42);
    for (int op = 0; op < 2000; ++op) {
        const std::string key = "k" + std::to_string(rng() % 300);
        switch (rng() % 3) {
          case 0:
          case 1: {
            const std::string val(1 + rng() % 100, char('a' + rng() % 26));
            ht.put(key, val);
            model[key] = val;
            break;
          }
          default: {
            EXPECT_EQ(ht.del(key), model.erase(key) > 0) << key;
            break;
          }
        }
    }
    EXPECT_EQ(ht.size(), model.size());
    std::string v;
    for (const auto &[key, val] : model) {
        ASSERT_TRUE(ht.get(key, &v)) << key;
        EXPECT_EQ(v, val);
    }
    EXPECT_FALSE(ht.get("never-inserted", &v));
}

TEST(PHashTable, SurvivesRestart)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    {
        Runtime rt(rtCfg(c, dir.path()));
        ds::PHashTable ht(rt, "ht", 64);
        for (int i = 0; i < 100; ++i)
            ht.put("key" + std::to_string(i), "val" + std::to_string(i));
    }
    Runtime rt(rtCfg(c, dir.path()));
    ds::PHashTable ht(rt, "ht", 64);
    EXPECT_EQ(ht.size(), 100u);
    std::string v;
    ASSERT_TRUE(ht.get("key42", &v));
    EXPECT_EQ(v, "val42");
}

TEST(PHashTable, ConcurrentPutsAllLand)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    Runtime rt(rtCfg(c, dir.path()));
    ds::PHashTable ht(rt, "ht", 256);

    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t) {
        ts.emplace_back([&, t] {
            for (int i = 0; i < 100; ++i)
                ht.put("t" + std::to_string(t) + "k" + std::to_string(i),
                       "v");
        });
    }
    for (auto &th : ts)
        th.join();
    EXPECT_EQ(ht.size(), 400u);
    std::string v;
    for (int t = 0; t < 4; ++t)
        for (int i = 0; i < 100; ++i)
            ASSERT_TRUE(ht.get(
                "t" + std::to_string(t) + "k" + std::to_string(i), &v));
}

class HashTableCrash : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(HashTableCrash, RecoversToConsistentPrefix)
{
    const uint64_t seed = GetParam();
    TempDir dir;
    std::map<std::string, std::string> model;
    size_t done_ops = 0;
    std::mt19937_64 rng(seed);
    std::vector<std::pair<std::string, std::string>> ops;
    for (int i = 0; i < 60; ++i) {
        ops.emplace_back("k" + std::to_string(rng() % 25),
                         std::string(1 + rng() % 80, char('a' + i % 26)));
    }
    {
        scm::ScmContext c(
            scmCfg(scm::CrashPersistMode::kRandomSubset, seed));
        Runtime rt(rtCfg(c, dir.path()));
        ds::PHashTable ht(rt, "ht", 16);
        const uint64_t crash_at = c.eventCount() + 50 + rng() % 2000;
        c.setWriteHook([&](uint64_t n, scm::ScmContext::Event, const void *,
                           size_t) {
            if (n >= crash_at)
                throw scm::CrashNow{n};
        });
        try {
            for (const auto &[k, val] : ops) {
                ht.put(k, val);
                ++done_ops;
            }
        } catch (const scm::CrashNow &) {
        }
        c.setWriteHook(nullptr);
        c.crash(true);
    }
    for (size_t i = 0; i < done_ops; ++i)
        model[ops[i].first] = ops[i].second;

    scm::ScmContext c2(scmCfg());
    Runtime rt(rtCfg(c2, dir.path()));
    ds::PHashTable ht(rt, "ht", 16);
    // Every completed put must be visible; the op in flight may or may
    // not have committed.
    std::string v;
    for (const auto &[k, val] : model) {
        if (done_ops < ops.size() && k == ops[done_ops].first)
            continue; // racing with the in-flight op on the same key
        ASSERT_TRUE(ht.get(k, &v)) << k << " seed " << seed;
        EXPECT_TRUE(v == val || (done_ops < ops.size() &&
                                 v == ops[done_ops].second))
            << k << " seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashTableCrash,
                         ::testing::Range<uint64_t>(0, 24));

// ----------------------------------------------------------------- PAvlTree

TEST(PAvlTree, SortedIterationAndBalance)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    Runtime rt(rtCfg(c, dir.path()));
    ds::PAvlTree t(rt, "avl");

    std::mt19937_64 rng(7);
    std::map<std::string, std::string> model;
    for (int i = 0; i < 500; ++i) {
        char buf[16];
        snprintf(buf, sizeof(buf), "k%06llu",
                 (unsigned long long)(rng() % 100000));
        t.put(buf, "v" + std::to_string(i));
        model[buf] = "v" + std::to_string(i);
    }
    EXPECT_EQ(t.size(), model.size());

    std::vector<std::string> keys;
    t.forEach([&](std::string_view k, std::string_view) {
        keys.emplace_back(k);
    });
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(keys.size(), model.size());

    // AVL balance: height <= 1.44 log2(n + 2).
    const double bound = 1.45 * std::log2(double(model.size()) + 2.0);
    EXPECT_LE(double(t.height()), bound);
}

TEST(PAvlTree, DeleteKeepsOrderAndContents)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    Runtime rt(rtCfg(c, dir.path()));
    ds::PAvlTree t(rt, "avl");

    std::map<std::string, std::string> model;
    std::mt19937_64 rng(11);
    for (int op = 0; op < 1200; ++op) {
        const std::string key = "k" + std::to_string(rng() % 150);
        if (rng() % 2) {
            t.put(key, key + "-v");
            model[key] = key + "-v";
        } else {
            EXPECT_EQ(t.del(key), model.erase(key) > 0);
        }
    }
    EXPECT_EQ(t.size(), model.size());
    std::vector<std::string> keys;
    t.forEach([&](std::string_view k, std::string_view v) {
        keys.emplace_back(k);
        EXPECT_EQ(v, model.at(std::string(k)));
    });
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(PAvlTree, ValueReplacementReclaimsOldNode)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    Runtime rt(rtCfg(c, dir.path()));
    ds::PAvlTree t(rt, "avl");
    t.put("key", std::string(100, 'a'));
    const auto before = rt.heap().stats().small.blocks_allocated;
    for (int i = 0; i < 50; ++i)
        t.put("key", std::string(100, char('a' + i % 26)));
    const auto after = rt.heap().stats().small.blocks_allocated;
    EXPECT_EQ(before, after) << "replacement must free the old node";
    std::string v;
    ASSERT_TRUE(t.get("key", &v));
    EXPECT_EQ(v, std::string(100, char('a' + 49 % 26)));
}

class AvlCrash : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(AvlCrash, CommittedPutsSurviveAnyCrashDuringRebalancing)
{
    const uint64_t seed = GetParam();
    TempDir dir;
    size_t done = 0;
    {
        scm::ScmContext c(
            scmCfg(scm::CrashPersistMode::kRandomSubset, seed));
        Runtime rt(rtCfg(c, dir.path()));
        ds::PAvlTree t(rt, "avlc");
        std::mt19937_64 rng(seed);
        const uint64_t crash_at = c.eventCount() + 200 + rng() % 4000;
        c.setWriteHook([&](uint64_t n, scm::ScmContext::Event, const void *,
                           size_t) {
            if (n >= crash_at)
                throw scm::CrashNow{n};
        });
        try {
            for (int i = 0; i < 120; ++i) {
                // Sequential keys maximize rotations per insert.
                char key[16];
                snprintf(key, sizeof(key), "k%05d", i);
                t.put(key, std::string(20 + i % 40, 'v'));
                ++done;
            }
        } catch (const scm::CrashNow &) {
        }
        c.setWriteHook(nullptr);
        c.crash(true);
    }
    scm::ScmContext c2(scmCfg());
    Runtime rt(rtCfg(c2, dir.path()));
    ds::PAvlTree t(rt, "avlc");
    EXPECT_GE(t.size(), done);
    EXPECT_LE(t.size(), done + 1);
    std::string v;
    std::vector<std::string> keys;
    t.forEach([&](std::string_view k, std::string_view) {
        keys.emplace_back(k);
    });
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end())) << "seed " << seed;
    for (size_t i = 0; i < done; ++i) {
        char key[16];
        snprintf(key, sizeof(key), "k%05zu", i);
        ASSERT_TRUE(t.get(key, &v)) << key << " lost, seed " << seed;
    }
    // AVL balance must hold after recovery, too.
    const double bound = 1.45 * std::log2(double(t.size()) + 2.0) + 1;
    EXPECT_LE(double(t.height()), bound) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvlCrash, ::testing::Range<uint64_t>(0, 24));

// ----------------------------------------------------------------- PRbTree

TEST(PRbTree, InvariantsHoldUnderRandomInserts)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    Runtime rt(rtCfg(c, dir.path()));
    ds::PRbTree t(rt, "rb");

    std::mt19937_64 rng(3);
    std::vector<uint8_t> payload(ds::PRbTree::kPayloadBytes, 0x5a);
    std::map<uint64_t, uint8_t> model;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t key = rng() % 5000;
        payload[0] = uint8_t(i);
        t.put(key, payload.data(), payload.size());
        model[key] = uint8_t(i);
    }
    EXPECT_EQ(t.size(), model.size());
    EXPECT_NO_THROW(t.checkInvariants());

    std::vector<uint64_t> keys;
    t.forEachKey([&](uint64_t k) { keys.push_back(k); });
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(keys.size(), model.size());

    std::vector<uint8_t> out(ds::PRbTree::kPayloadBytes);
    for (const auto &[key, tag] : model) {
        ASSERT_TRUE(t.get(key, out.data()));
        EXPECT_EQ(out[0], tag);
    }
}

TEST(PRbTree, SurvivesRestartWithInvariants)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    {
        Runtime rt(rtCfg(c, dir.path()));
        ds::PRbTree t(rt, "rb");
        uint8_t p[ds::PRbTree::kPayloadBytes] = {};
        for (uint64_t i = 0; i < 300; ++i)
            t.put(i * 7 % 307, p, sizeof(p)); // 307 prime: 300 distinct keys
    }
    Runtime rt(rtCfg(c, dir.path()));
    ds::PRbTree t(rt, "rb");
    EXPECT_EQ(t.size(), 300u);
    EXPECT_NO_THROW(t.checkInvariants());
}

class RbTreeCrash : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RbTreeCrash, InvariantsHoldAfterCrashAnywhere)
{
    const uint64_t seed = GetParam();
    TempDir dir;
    {
        scm::ScmContext c(
            scmCfg(scm::CrashPersistMode::kRandomSubset, seed));
        Runtime rt(rtCfg(c, dir.path()));
        ds::PRbTree t(rt, "rb");
        std::mt19937_64 rng(seed);
        uint8_t p[ds::PRbTree::kPayloadBytes] = {};
        const uint64_t crash_at = c.eventCount() + 100 + rng() % 3000;
        c.setWriteHook([&](uint64_t n, scm::ScmContext::Event, const void *,
                           size_t) {
            if (n >= crash_at)
                throw scm::CrashNow{n};
        });
        try {
            for (int i = 0; i < 120; ++i)
                t.put(rng() % 1000, p, sizeof(p));
        } catch (const scm::CrashNow &) {
        }
        c.setWriteHook(nullptr);
        c.crash(true);
    }
    scm::ScmContext c2(scmCfg());
    Runtime rt(rtCfg(c2, dir.path()));
    ds::PRbTree t(rt, "rb");
    EXPECT_NO_THROW(t.checkInvariants()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RbTreeCrash,
                         ::testing::Range<uint64_t>(0, 24));

// ----------------------------------------------------------------- PBpTree

TEST(PBpTree, PutGetDelAgainstModel)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    Runtime rt(rtCfg(c, dir.path()));
    ds::PBpTree t(rt, "bp");

    std::map<std::string, std::string> model;
    std::mt19937_64 rng(17);
    for (int op = 0; op < 2500; ++op) {
        char key[24];
        snprintf(key, sizeof(key), "key%05llu",
                 (unsigned long long)(rng() % 600));
        switch (rng() % 4) {
          case 0:
          case 1:
          case 2: {
            const std::string val(1 + rng() % 200, char('a' + rng() % 26));
            t.put(key, val);
            model[key] = val;
            break;
          }
          default:
            EXPECT_EQ(t.del(key), model.erase(key) > 0) << key;
        }
    }
    EXPECT_EQ(t.size(), model.size());
    EXPECT_NO_THROW(t.checkInvariants());

    std::string v;
    for (const auto &[key, val] : model) {
        ASSERT_TRUE(t.get(key, &v)) << key;
        EXPECT_EQ(v, val);
    }

    std::vector<std::string> keys;
    t.forEach([&](std::string_view k, std::string_view v2) {
        keys.emplace_back(k);
        EXPECT_EQ(v2, model.at(std::string(k)));
    });
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(keys.size(), model.size());
}

TEST(PBpTree, DeepTreeSurvivesRestart)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    size_t height = 0;
    {
        Runtime rt(rtCfg(c, dir.path()));
        ds::PBpTree t(rt, "bp");
        for (int i = 0; i < 3000; ++i) {
            char key[24];
            snprintf(key, sizeof(key), "key%05d", i);
            t.put(key, "v" + std::to_string(i));
        }
        height = t.checkInvariants();
        EXPECT_GE(height, 3u) << "test must exercise internal splits";
    }
    Runtime rt(rtCfg(c, dir.path()));
    ds::PBpTree t(rt, "bp");
    EXPECT_EQ(t.size(), 3000u);
    EXPECT_EQ(t.checkInvariants(), height);
    std::string v;
    ASSERT_TRUE(t.get("key01234", &v));
    EXPECT_EQ(v, "v1234");
}

TEST(PBpTree, RejectsOversizedKey)
{
    TempDir dir;
    scm::ScmContext c(scmCfg());
    Runtime rt(rtCfg(c, dir.path()));
    ds::PBpTree t(rt, "bp");
    EXPECT_THROW(t.put(std::string(100, 'k'), "v"), std::invalid_argument);
}

class BpTreeCrash : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BpTreeCrash, StructureValidAfterCrashDuringSplits)
{
    const uint64_t seed = GetParam();
    TempDir dir;
    size_t done = 0;
    {
        scm::ScmContext c(
            scmCfg(scm::CrashPersistMode::kRandomSubset, seed));
        Runtime rt(rtCfg(c, dir.path()));
        ds::PBpTree t(rt, "bp");
        std::mt19937_64 rng(seed);
        const uint64_t crash_at = c.eventCount() + 200 + rng() % 5000;
        c.setWriteHook([&](uint64_t n, scm::ScmContext::Event, const void *,
                           size_t) {
            if (n >= crash_at)
                throw scm::CrashNow{n};
        });
        try {
            for (int i = 0; i < 150; ++i) {
                char key[24];
                snprintf(key, sizeof(key), "key%05d", i);
                t.put(key, std::string(20, 'x'));
                ++done;
            }
        } catch (const scm::CrashNow &) {
        }
        c.setWriteHook(nullptr);
        c.crash(true);
    }
    scm::ScmContext c2(scmCfg());
    Runtime rt(rtCfg(c2, dir.path()));
    ds::PBpTree t(rt, "bp");
    EXPECT_NO_THROW(t.checkInvariants()) << "seed " << seed;
    // Every completed put is present (the in-flight one may be too).
    std::string v;
    for (size_t i = 0; i < done; ++i) {
        char key[24];
        snprintf(key, sizeof(key), "key%05zu", i);
        ASSERT_TRUE(t.get(key, &v)) << key << " seed " << seed;
    }
    EXPECT_GE(t.size(), done);
    EXPECT_LE(t.size(), done + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BpTreeCrash,
                         ::testing::Range<uint64_t>(0, 24));

// ----------------------------------------------------------------- VRbTree

TEST(VRbTree, SerializationRoundTripThroughPcmDisk)
{
    mnemosyne::pcmdisk::PcmDiskConfig dcfg;
    dcfg.capacity_bytes = 32 << 20;
    mnemosyne::pcmdisk::PcmDisk disk(dcfg);
    mnemosyne::pcmdisk::MiniFs fs(disk);

    ds::VRbTree t;
    uint8_t p[ds::VRbTree::kPayloadBytes];
    for (uint64_t i = 0; i < 1000; ++i) {
        std::memset(p, int(i % 251), sizeof(p));
        t.put(i * 3, p, sizeof(p));
    }
    t.saveToFile(fs, "tree.bin");
    disk.crash();

    auto t2 = ds::VRbTree::loadFromFile(fs, "tree.bin");
    EXPECT_EQ(t2.size(), 1000u);
    uint8_t out[ds::VRbTree::kPayloadBytes];
    ASSERT_TRUE(t2.get(999 * 3, out));
    EXPECT_EQ(out[0], uint8_t(999 % 251));
    EXPECT_FALSE(t2.get(1, out));
}
