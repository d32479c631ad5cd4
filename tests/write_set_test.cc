/**
 * @file
 * Randomized differential tests of the STM fast-path containers
 * (mtm/write_set.h) against std::unordered_map references: inserts,
 * overwrites, probes, O(1) clear with generation reuse, and growth
 * under load.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "mtm/write_set.h"

using mnemosyne::mtm::DenseMap;

namespace {

/** Word-aligned addresses from a pool sized to force probe collisions. */
uintptr_t
randomAddr(std::mt19937_64 &rng, size_t pool_words)
{
    const uintptr_t base = 0x600000000000ULL;
    return base + (rng() % pool_words) * 8;
}

} // namespace

TEST(DenseMap, DifferentialAgainstUnorderedMap)
{
    std::mt19937_64 rng(0xd1f5u);
    DenseMap<uint64_t> dut;
    std::unordered_map<uintptr_t, uint64_t> ref;

    // Many rounds separated by clear(): the table must behave like a
    // fresh map every round even though slots/generation are reused.
    for (int round = 0; round < 200; ++round) {
        const size_t pool = 1 + size_t(rng() % 512);
        const int ops = 1 + int(rng() % 300);
        for (int op = 0; op < ops; ++op) {
            const uintptr_t key = randomAddr(rng, pool);
            switch (rng() % 3) {
              case 0: {   // insert-if-absent
                const uint64_t val = rng();
                auto [slot, inserted] = dut.insert(key, val);
                const auto r = ref.emplace(key, val);
                ASSERT_EQ(inserted, r.second);
                ASSERT_EQ(*slot, r.first->second);
                break;
              }
              case 1: {   // overwrite
                const uint64_t val = rng();
                const bool was_new = dut.put(key, val);
                ASSERT_EQ(was_new, ref.find(key) == ref.end());
                ref[key] = val;
                break;
              }
              default: {  // probe
                const uint64_t *v = dut.find(key);
                const auto it = ref.find(key);
                if (it == ref.end()) {
                    ASSERT_EQ(v, nullptr);
                } else {
                    ASSERT_NE(v, nullptr);
                    ASSERT_EQ(*v, it->second);
                }
              }
            }
        }
        ASSERT_EQ(dut.size(), ref.size());
        // Full cross-check both directions.
        size_t seen = 0;
        for (const auto &item : dut) {
            const auto it = ref.find(item.key);
            ASSERT_NE(it, ref.end());
            ASSERT_EQ(item.val, it->second);
            ++seen;
        }
        ASSERT_EQ(seen, ref.size());
        dut.clear();
        ref.clear();
        ASSERT_TRUE(dut.empty());
        ASSERT_EQ(dut.find(randomAddr(rng, pool)), nullptr);
    }
}

TEST(DenseMap, GrowthPreservesEntriesAndInsertionOrder)
{
    DenseMap<uint64_t> dut;
    std::vector<uintptr_t> keys;
    for (size_t i = 0; i < 5000; ++i) {
        const uintptr_t key = 0x700000000000ULL + i * 8;
        keys.push_back(key);
        dut.insert(key, i);
    }
    ASSERT_EQ(dut.size(), keys.size());
    size_t n = 0;
    for (const auto &item : dut) {
        ASSERT_EQ(item.key, keys[n]) << "insertion order must be stable";
        ASSERT_EQ(item.val, n);
        ++n;
    }
    for (size_t i = 0; i < keys.size(); ++i) {
        const uint64_t *v = dut.find(keys[i]);
        ASSERT_NE(v, nullptr);
        ASSERT_EQ(*v, i);
    }
}
