/**
 * @file
 * Tests for the crash-injection harness itself, plus harness-driven
 * end-to-end reliability runs (section 6.2): the seeded crash stress
 * engine across many crash points, and torn-bit validation under
 * harness-injected bit flips.
 */

#include <gtest/gtest.h>

#include <random>

#include "crash/crash_harness.h"
#include "log/rawl.h"
#include "runtime/runtime.h"
#include "scm/scm.h"
#include "tests/test_util.h"

namespace scm = mnemosyne::scm;
namespace crash = mnemosyne::crash;
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
    rc.txn.log_slot_bytes = 256 * 1024;
    return rc;
}

} // namespace

TEST(CrashPoint, FiresExactlyOnceAndHaltsTheMachine)
{
    scm::ScmContext c{scm::ScmConfig{}};
    uint64_t word = 0;
    {
        crash::CrashPoint cp(c, c.eventCount() + 2);
        c.wtstoreT<uint64_t>(&word, 1); // event 1: passes
        EXPECT_FALSE(cp.fired());
        EXPECT_THROW(c.wtstoreT<uint64_t>(&word, 2), scm::CrashNow);
        EXPECT_TRUE(cp.fired());
        EXPECT_EQ(cp.firedEvent(), c.eventCount());
        // The machine died at the crash instant: unwinding code may keep
        // issuing writes, but they are silent no-ops and cannot alter
        // the post-crash image.
        EXPECT_TRUE(c.halted());
        EXPECT_NO_THROW(c.wtstoreT<uint64_t>(&word, 3));
        EXPECT_EQ(word, 1u);
    }
}

TEST(FlipRandomBits, FlipsAreReal)
{
    std::vector<uint8_t> buf(256, 0);
    auto flipped = crash::flipRandomBits(buf.data(), buf.size(), 5, 42);
    EXPECT_EQ(flipped.size(), 5u);
    size_t set_bits = 0;
    for (uint8_t b : buf)
        set_bits += size_t(__builtin_popcount(b));
    EXPECT_GE(set_bits, 1u);
    EXPECT_LE(set_bits, 5u); // collisions can cancel
}

class StressSweep
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, scm::CrashPersistMode>>
{
};

TEST_P(StressSweep, MemoryMatchesCommittedPrefix)
{
    const uint64_t seed = std::get<0>(GetParam());
    const auto mode = std::get<1>(GetParam());
    TempDir dir;
    uint64_t committed = 0;
    uint64_t crash_event = 0;
    {
        scm::ScmConfig sc;
        sc.crash_mode = mode;
        sc.crash_seed = seed ^ 0x5eed;
        scm::ScmContext c(sc);
        Runtime rt(rtCfg(c, dir.path()));
        crash::StressEngine eng(rt, seed);
        std::mt19937_64 rng(seed);
        committed =
            eng.run(c, 300, c.eventCount() + 50 + rng() % 4000);
        crash_event = eng.lastCrashEvent();
        c.crash(true);
    }
    scm::ScmContext c2{scm::ScmConfig{}};
    Runtime rt(rtCfg(c2, dir.path()));
    const auto res = crash::StressEngine::verify(rt, seed, committed,
                                                 "crash_stress",
                                                 crash_event);
    EXPECT_TRUE(res.verified)
        << "seed " << seed << " mode " << int(mode) << ": "
        << res.mismatch;
}

// Every seed crossed with every crash-persistence model: the strict
// drop-unfenced and keep-issued models, the flush-on-fail keep-all
// model, and the adversarial random-subset model.
INSTANTIATE_TEST_SUITE_P(
    Seeds, StressSweep,
    ::testing::Combine(
        ::testing::Range<uint64_t>(0, 10),
        ::testing::Values(scm::CrashPersistMode::kDropUnfenced,
                          scm::CrashPersistMode::kKeepIssued,
                          scm::CrashPersistMode::kKeepAll,
                          scm::CrashPersistMode::kRandomSubset)));

TEST(TornBitHarness, TornBitFlipsTruncateToExactPrefix)
{
    // The paper's torn-bit validation: flip torn bits in the log image
    // before recovery; the scan must stop at the first flipped word,
    // yielding an exact prefix of the appended records (the RAWL is
    // semantic-free: payload corruption is the client's concern, torn
    // BITS are the log's).
    for (uint64_t seed = 0; seed < 24; ++seed) {
        scm::ScmContext c{scm::ScmConfig{}};
        std::vector<uint64_t> arena(2048 / 8, 0);
        auto log = mlog::Rawl::create(c, arena.data(), 2048);
        std::vector<std::vector<uint64_t>> appended;
        std::mt19937_64 rng(seed);
        size_t words_used = 0;
        for (int r = 0; r < 5; ++r) {
            std::vector<uint64_t> rec(1 + rng() % 8);
            for (auto &w : rec)
                w = rng();
            log->append(rec.data(), rec.size());
            appended.push_back(rec);
            words_used += 1 + (64 * rec.size() + 62) / 63;
        }
        log->flush();
        c.persistAll();

        // Flip the torn bit (bit 63) of one word inside the used area.
        auto *buf = reinterpret_cast<uint64_t *>(
            reinterpret_cast<mlog::Rawl::Header *>(arena.data()) + 1);
        const size_t victim = rng() % words_used;
        buf[victim] ^= (uint64_t(1) << 63);

        auto re = mlog::Rawl::open(c, arena.data());
        ASSERT_NE(re, nullptr);
        auto cur = re->begin();
        std::vector<uint64_t> out;
        size_t i = 0;
        size_t boundary = 0; // records wholly before the victim word
        size_t pos = 0;
        for (const auto &rec : appended) {
            pos += 1 + (64 * rec.size() + 62) / 63;
            if (pos <= victim)
                ++boundary;
        }
        while (re->readRecord(cur, out)) {
            ASSERT_LT(i, appended.size());
            EXPECT_EQ(out, appended[i]) << "seed " << seed;
            ++i;
        }
        EXPECT_EQ(i, boundary) << "seed " << seed << " victim " << victim;
    }
}

TEST(TornBitHarness, RandomSubsetSurvivalSweepRecoversExactPrefix)
{
    // Adversarial-persistence property sweep over the tornbit append
    // protocol: 256 kRandomSubset survival seeds, each crashing at a
    // seeded point inside a sequence of append+flush bursts.  Whatever
    // random subset of the in-flight words reaches SCM, recovery must
    // yield an exact, uncorrupted record prefix that includes every
    // record whose flush completed before the crash.
    constexpr int kRecords = 8;
    auto wordOf = [](uint64_t seed, int r, size_t j) {
        return ((seed << 32) | (uint64_t(r) << 8) | j) &
               mlog::Rawl::kPayloadMask;
    };
    for (uint64_t seed = 0; seed < 256; ++seed) {
        std::vector<uint64_t> arena(4096 / 8, 0);
        size_t flushed = 0;
        bool crashed = false;
        {
            scm::ScmConfig sc;
            sc.crash_mode = scm::CrashPersistMode::kRandomSubset;
            sc.crash_seed = seed;
            scm::ScmContext c(sc);
            auto log = mlog::Rawl::create(c, arena.data(), 4096);
            c.persistAll();
            std::mt19937_64 rng(seed * 7919 + 1);
            try {
                crash::CrashPoint cp(c, c.eventCount() + 1 + rng() % 18);
                for (int r = 0; r < kRecords; ++r) {
                    uint64_t rec[4];
                    const size_t n = 1 + size_t(r) % 4;
                    for (size_t j = 0; j < n; ++j)
                        rec[j] = wordOf(seed, r, j);
                    log->append(rec, n);
                    log->flush();
                    ++flushed;
                }
            } catch (const scm::CrashNow &) {
                crashed = true;
            }
            c.crash(true);
        }
        scm::ScmContext c2{scm::ScmConfig{}};
        auto re = mlog::Rawl::open(c2, arena.data());
        ASSERT_NE(re, nullptr) << "seed " << seed;
        auto cur = re->begin();
        std::vector<uint64_t> out;
        size_t i = 0;
        while (re->readRecord(cur, out)) {
            ASSERT_LT(i, size_t(kRecords)) << "seed " << seed;
            const size_t n = 1 + i % 4;
            ASSERT_EQ(out.size(), n) << "seed " << seed << " record " << i;
            for (size_t j = 0; j < n; ++j)
                EXPECT_EQ(out[j], wordOf(seed, int(i), j))
                    << "seed " << seed << " record " << i;
            ++i;
        }
        // Durability: every record whose flush() returned before the
        // crash must have survived it.
        EXPECT_GE(i, flushed) << "seed " << seed;
        if (!crashed)
            EXPECT_EQ(i, size_t(kRecords)) << "seed " << seed;
    }
}
