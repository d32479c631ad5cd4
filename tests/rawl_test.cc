/**
 * @file
 * Tests for the tornbit RAWL, the commit-record baseline log, and the
 * log manager: append/read round-trips, wrap-around, torn-write
 * detection (including injected bit flips, paper section 6.2), and
 * crash-recovery properties under adversarial write loss.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "log/commit_record_log.h"
#include "log/log_manager.h"
#include "log/rawl.h"
#include "scm/scm.h"

namespace scm = mnemosyne::scm;
namespace mlog = mnemosyne::log;
using mlog::CommitRecordLog;
using mlog::LogManager;
using mlog::Rawl;

namespace {

scm::ScmConfig
cfg(scm::CrashPersistMode mode = scm::CrashPersistMode::kDropUnfenced,
    uint64_t seed = 0)
{
    scm::ScmConfig c;
    c.crash_mode = mode;
    c.crash_seed = seed;
    return c;
}

/** Aligned persistent-memory stand-in for one log. */
struct Arena {
    explicit Arena(size_t bytes) : bytes_(bytes), mem((bytes + 7) / 8, 0) {}
    void *data() { return mem.data(); }
    size_t size() const { return bytes_; }
    size_t bytes_;
    std::vector<uint64_t> mem; // uint64_t for alignment
};

std::vector<uint64_t>
record(size_t n, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<uint64_t> r(n);
    for (auto &w : r)
        w = rng() & Rawl::kPayloadMask; // arbitrary payloads work too; keep readable
    for (auto &w : r)
        w = rng();
    return r;
}

} // namespace

TEST(Rawl, AppendReadRoundTrip)
{
    scm::ScmContext c(cfg());
    Arena a(8192);
    auto log = Rawl::create(c, a.data(), a.size());

    const auto r1 = record(5, 1);
    const auto r2 = record(17, 2);
    log->append(r1.data(), r1.size());
    log->append(r2.data(), r2.size());
    log->flush();

    auto cur = log->begin();
    std::vector<uint64_t> out;
    ASSERT_TRUE(log->readRecord(cur, out));
    EXPECT_EQ(out, r1);
    ASSERT_TRUE(log->readRecord(cur, out));
    EXPECT_EQ(out, r2);
    EXPECT_FALSE(log->readRecord(cur, out));
}

TEST(Rawl, FullPayloadBitsSurvive)
{
    // 64-bit payload words with all bits set must round-trip: the torn
    // bit must not steal payload bits.
    scm::ScmContext c(cfg());
    Arena a(8192);
    auto log = Rawl::create(c, a.data(), a.size());
    std::vector<uint64_t> r(7, ~uint64_t(0));
    log->append(r.data(), r.size());
    log->flush();
    auto cur = log->begin();
    std::vector<uint64_t> out;
    ASSERT_TRUE(log->readRecord(cur, out));
    EXPECT_EQ(out, r);
}

TEST(Rawl, EmptyRecordRoundTrips)
{
    scm::ScmContext c(cfg());
    Arena a(4096);
    auto log = Rawl::create(c, a.data(), a.size());
    log->append(nullptr, 0);
    log->flush();
    auto cur = log->begin();
    std::vector<uint64_t> out;
    ASSERT_TRUE(log->readRecord(cur, out));
    EXPECT_TRUE(out.empty());
}

TEST(Rawl, RecordTooLargeThrows)
{
    scm::ScmContext c(cfg());
    Arena a(1024);
    auto log = Rawl::create(c, a.data(), a.size());
    std::vector<uint64_t> big(4096, 1);
    EXPECT_THROW(log->append(big.data(), big.size()), mlog::RecordTooLarge);
}

TEST(Rawl, WrapAroundManyPasses)
{
    scm::ScmContext c(cfg());
    Arena a(2048); // small log, many wraps
    auto log = Rawl::create(c, a.data(), a.size());

    std::vector<uint64_t> out;
    for (uint64_t i = 0; i < 500; ++i) {
        const auto r = record(3 + i % 20, i);
        log->append(r.data(), r.size());
        log->flush();
        auto cur = log->begin();
        ASSERT_TRUE(log->readRecord(cur, out)) << "iteration " << i;
        EXPECT_EQ(out, r) << "iteration " << i;
        log->consumeTo(cur);
    }
    EXPECT_GT(log->tailAbs(), log->capacityWords() * 2)
        << "test must exercise multiple passes";
}

TEST(Rawl, ProducerSpinsThenSucceedsAfterConsume)
{
    scm::ScmContext c(cfg());
    Arena a(1024);
    auto log = Rawl::create(c, a.data(), a.size());

    const auto r = record(40, 7);
    while (log->tryAppend(r.data(), r.size())) {
    }
    log->flush();
    // Full: free the first record and retry.
    auto cur = log->begin();
    std::vector<uint64_t> out;
    ASSERT_TRUE(log->readRecord(cur, out));
    log->consumeTo(cur);
    EXPECT_TRUE(log->tryAppend(r.data(), r.size()));
}

TEST(Rawl, ReopenAfterCleanShutdownKeepsRecords)
{
    scm::ScmContext c(cfg());
    Arena a(8192);
    {
        auto log = Rawl::create(c, a.data(), a.size());
        const auto r = record(9, 3);
        log->append(r.data(), r.size());
        log->flush();
    }
    c.persistAll();
    auto log = Rawl::open(c, a.data());
    ASSERT_NE(log, nullptr);
    auto cur = log->begin();
    std::vector<uint64_t> out;
    ASSERT_TRUE(log->readRecord(cur, out));
    EXPECT_EQ(out, record(9, 3));
}

TEST(Rawl, FlushedRecordSurvivesCrash)
{
    scm::ScmContext c(cfg());
    Arena a(8192);
    auto log = Rawl::create(c, a.data(), a.size());
    const auto r = record(9, 3);
    log->append(r.data(), r.size());
    log->flush();
    c.crash();

    auto re = Rawl::open(c, a.data());
    ASSERT_NE(re, nullptr);
    auto cur = re->begin();
    std::vector<uint64_t> out;
    ASSERT_TRUE(re->readRecord(cur, out));
    EXPECT_EQ(out, r);
    EXPECT_FALSE(re->readRecord(cur, out));
}

TEST(Rawl, UnflushedRecordDiscardedOnCrash)
{
    scm::ScmContext c(cfg());
    Arena a(8192);
    auto log = Rawl::create(c, a.data(), a.size());
    const auto r1 = record(9, 3);
    log->append(r1.data(), r1.size());
    log->flush();
    const auto r2 = record(6, 4);
    log->append(r2.data(), r2.size()); // never flushed
    c.crash();

    auto re = Rawl::open(c, a.data());
    auto cur = re->begin();
    std::vector<uint64_t> out;
    ASSERT_TRUE(re->readRecord(cur, out));
    EXPECT_EQ(out, r1);
    EXPECT_FALSE(re->readRecord(cur, out)) << "torn append must be dropped";
}

TEST(Rawl, TornBitDetectsInjectedBitFlips)
{
    // Reliability test from section 6.2: flip torn bits in the log
    // image before recovery; the scan must stop at the flip.
    scm::ScmContext c(cfg());
    Arena a(8192);
    auto log = Rawl::create(c, a.data(), a.size());
    for (int i = 0; i < 4; ++i) {
        const auto r = record(8, i);
        log->append(r.data(), r.size());
    }
    log->flush();
    c.persistAll();

    // Flip the torn bit of a word inside the third record.
    auto *words = reinterpret_cast<uint64_t *>(
        reinterpret_cast<Rawl::Header *>(a.data()) + 1);
    const size_t rec_words = 1 + (64 * 8 + 62) / 63;
    words[2 * rec_words + 3] ^= (uint64_t(1) << 63);

    auto re = Rawl::open(c, a.data());
    auto cur = re->begin();
    std::vector<uint64_t> out;
    int recovered = 0;
    while (re->readRecord(cur, out))
        ++recovered;
    EXPECT_EQ(recovered, 2) << "scan must stop at the injected flip";
}

TEST(Rawl, TruncateAllEmptiesLog)
{
    scm::ScmContext c(cfg());
    Arena a(8192);
    auto log = Rawl::create(c, a.data(), a.size());
    const auto r = record(9, 3);
    log->append(r.data(), r.size());
    log->flush();
    log->truncateAll();
    EXPECT_TRUE(log->empty());
    c.crash();
    auto re = Rawl::open(c, a.data());
    EXPECT_TRUE(re->empty());
}

// Crash-recovery property: under adversarial partial write loss (random
// subsets of unfenced streamed words persist), recovery yields a prefix
// of the flushed appends, and never garbage.
class RawlCrashProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RawlCrashProperty, RecoversExactPrefix)
{
    const uint64_t seed = GetParam();
    scm::ScmContext c(cfg(scm::CrashPersistMode::kRandomSubset, seed));
    Arena a(4096);
    auto log = Rawl::create(c, a.data(), a.size());
    c.persistAll(); // creation is durable; the crash targets appends

    std::mt19937_64 rng(seed);
    std::vector<std::vector<uint64_t>> appended;
    size_t flushed_count = 0;
    const size_t n_appends = 2 + rng() % 6;
    for (size_t i = 0; i < n_appends; ++i) {
        auto r = record(1 + rng() % 12, seed * 100 + i);
        log->append(r.data(), r.size());
        appended.push_back(std::move(r));
        if (rng() % 2) {
            log->flush();
            flushed_count = i + 1;
        }
    }
    c.crash();

    auto re = Rawl::open(c, a.data());
    ASSERT_NE(re, nullptr);
    auto cur = re->begin();
    std::vector<uint64_t> out;
    size_t recovered = 0;
    while (re->readRecord(cur, out)) {
        ASSERT_LT(recovered, appended.size());
        EXPECT_EQ(out, appended[recovered]) << "record " << recovered;
        ++recovered;
    }
    // Every flushed append must be recovered; unflushed ones may or may
    // not have survived, but only as an exact prefix continuation.
    EXPECT_GE(recovered, flushed_count) << "flushed data lost";
    EXPECT_LE(recovered, appended.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RawlCrashProperty,
                         ::testing::Range<uint64_t>(0, 64));

// Repeated crash/recover cycles must preserve the filler invariant: a
// stale word from an earlier crash in the same pass must never alias as
// valid (the double-crash scenario).
TEST(Rawl, DoubleCrashDoesNotResurrectStaleWords)
{
    for (uint64_t seed = 0; seed < 32; ++seed) {
        scm::ScmContext c(cfg(scm::CrashPersistMode::kRandomSubset, seed));
        Arena a(2048);
        auto log = Rawl::create(c, a.data(), a.size());
        c.persistAll();

        std::mt19937_64 rng(seed ^ 0xabcdef);
        std::vector<uint64_t> out;
        for (int round = 0; round < 4; ++round) {
            std::vector<std::vector<uint64_t>> appended;
            size_t flushed_count = 0;
            for (size_t i = 0; i < 3; ++i) {
                auto r = record(1 + rng() % 30, rng());
                log->append(r.data(), r.size());
                appended.push_back(std::move(r));
                if (rng() % 2) {
                    log->flush();
                    flushed_count = i + 1;
                }
            }
            c.setCrashMode(scm::CrashPersistMode::kRandomSubset, rng());
            c.crash();
            log = Rawl::open(c, a.data());
            ASSERT_NE(log, nullptr);
            auto cur = log->begin();
            size_t recovered = 0;
            while (log->readRecord(cur, out)) {
                ASSERT_LT(recovered, appended.size());
                EXPECT_EQ(out, appended[recovered])
                    << "seed " << seed << " round " << round;
                ++recovered;
            }
            EXPECT_GE(recovered, flushed_count);
            log->truncateAll();
            c.persistAll();
        }
    }
}

TEST(CommitRecordLog, AppendReadRoundTrip)
{
    scm::ScmContext c(cfg());
    Arena a(8192);
    auto log = CommitRecordLog::create(c, a.data(), a.size());
    const auto r1 = record(5, 1);
    const auto r2 = record(17, 2);
    log->append(r1.data(), r1.size());
    log->append(r2.data(), r2.size());
    log->flush();
    auto cur = log->begin();
    std::vector<uint64_t> out;
    ASSERT_TRUE(log->readRecord(cur, out));
    EXPECT_EQ(out, r1);
    ASSERT_TRUE(log->readRecord(cur, out));
    EXPECT_EQ(out, r2);
    EXPECT_FALSE(log->readRecord(cur, out));
}

TEST(CommitRecordLog, UsesTwoFencesPerFlush)
{
    scm::ScmContext c(cfg());
    Arena a(8192);
    auto log = CommitRecordLog::create(c, a.data(), a.size());
    const auto r = record(5, 1);
    log->append(r.data(), r.size());
    const auto before = c.statsSnapshot().fences;
    log->flush();
    EXPECT_EQ(c.statsSnapshot().fences - before, 2u);
}

TEST(Rawl, UsesOneFencePerFlush)
{
    scm::ScmContext c(cfg());
    Arena a(8192);
    auto log = Rawl::create(c, a.data(), a.size());
    const auto r = record(5, 1);
    log->append(r.data(), r.size());
    const auto before = c.statsSnapshot().fences;
    log->flush();
    EXPECT_EQ(c.statsSnapshot().fences - before, 1u)
        << "the tornbit design needs exactly one fence";
}

TEST(CommitRecordLog, UnflushedAppendDiscardedOnCrash)
{
    scm::ScmContext c(cfg());
    Arena a(8192);
    auto log = CommitRecordLog::create(c, a.data(), a.size());
    const auto r1 = record(4, 1);
    log->append(r1.data(), r1.size());
    log->flush();
    const auto r2 = record(4, 2);
    log->append(r2.data(), r2.size());
    c.crash();
    auto re = CommitRecordLog::open(c, a.data());
    auto cur = re->begin();
    std::vector<uint64_t> out;
    ASSERT_TRUE(re->readRecord(cur, out));
    EXPECT_EQ(out, r1);
    EXPECT_FALSE(re->readRecord(cur, out));
}

class CommitLogCrashProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CommitLogCrashProperty, RecoversFlushedPrefix)
{
    const uint64_t seed = GetParam();
    scm::ScmContext c(cfg(scm::CrashPersistMode::kRandomSubset, seed));
    Arena a(4096);
    auto log = CommitRecordLog::create(c, a.data(), a.size());
    c.persistAll();

    std::mt19937_64 rng(seed);
    std::vector<std::vector<uint64_t>> appended;
    size_t flushed_count = 0;
    for (size_t i = 0; i < 5; ++i) {
        auto r = record(1 + rng() % 12, seed * 31 + i);
        log->append(r.data(), r.size());
        appended.push_back(std::move(r));
        if (rng() % 2) {
            log->flush();
            flushed_count = i + 1;
        }
    }
    c.crash();

    auto re = CommitRecordLog::open(c, a.data());
    auto cur = re->begin();
    std::vector<uint64_t> out;
    size_t recovered = 0;
    while (re->readRecord(cur, out)) {
        ASSERT_LT(recovered, appended.size());
        EXPECT_EQ(out, appended[recovered]);
        ++recovered;
    }
    EXPECT_GE(recovered, flushed_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommitLogCrashProperty,
                         ::testing::Range<uint64_t>(0, 32));

TEST(LogManager, AcquireReleaseAndRecovery)
{
    scm::ScmContext c(cfg());
    Arena a(LogManager::footprint(4, 4096));
    auto lm = LogManager::create(c, a.data(), a.size(), 4, 4096);

    Rawl *l0 = lm->acquire(100);
    Rawl *l1 = lm->acquire(101);
    EXPECT_EQ(lm->activeCount(), 2u);

    const auto r = record(6, 9);
    l0->append(r.data(), r.size());
    l0->flush();
    lm->release(l1);
    EXPECT_EQ(lm->activeCount(), 1u);
    c.crash();

    auto re = LogManager::open(c, a.data());
    ASSERT_NE(re, nullptr);
    EXPECT_EQ(re->activeCount(), 1u);
    re->forEachActive([&](size_t, Rawl &log) {
        auto cur = log.begin();
        std::vector<uint64_t> out;
        ASSERT_TRUE(log.readRecord(cur, out));
        EXPECT_EQ(out, r);
    });
}

TEST(LogManager, ExhaustionThrows)
{
    scm::ScmContext c(cfg());
    Arena a(LogManager::footprint(2, 2048));
    auto lm = LogManager::create(c, a.data(), a.size(), 2, 2048);
    lm->acquire();
    lm->acquire();
    EXPECT_THROW(lm->acquire(), std::runtime_error);
}
