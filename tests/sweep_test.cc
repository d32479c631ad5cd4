/**
 * @file
 * Tests for the exhaustive crash-consistency sweeper (crash/sweep.h):
 * repro-spec round-trips, clean-recovery baselines for every scenario,
 * full event sweeps for the fast scenarios (including the heap
 * crash-leak sweep: a crash at EVERY persistence event inside
 * pmalloc/pfree must leak or doubly-own nothing), strided sweeps for
 * the bigger ones, the epoch shapes the group-commit scenarios crash
 * inside, and the end-to-end detector check: an injected one-fence
 * protocol bug must be caught with a deterministically replayable
 * repro spec.
 */

#include <gtest/gtest.h>

#include "crash/scenario.h"
#include "crash/sweep.h"
#include "mtm/group_commit.h"
#include "obs/obs.h"
#include "obs/stats_registry.h"
#include "tests/test_util.h"

namespace crash = mnemosyne::crash;
namespace obs = mnemosyne::obs;
namespace scm = mnemosyne::scm;

namespace {

crash::SweepOptions
testOptions()
{
    crash::SweepOptions opts;
    opts.workers = 4;
    opts.random_seeds = 2;
    return opts;
}

} // namespace

TEST(SweepSpec, FormatParseRoundTrip)
{
    const crash::SweepSpec specs[] = {
        {"heap", 217, scm::CrashPersistMode::kRandomSubset, 3},
        {"rawl", 1, scm::CrashPersistMode::kDropUnfenced, 0},
        {"mtm", 9999, scm::CrashPersistMode::kKeepIssued, 0},
        {"bug_onefence", 12, scm::CrashPersistMode::kKeepAll, 7},
    };
    for (const auto &s : specs) {
        const std::string line = crash::formatSpec(s);
        crash::SweepSpec back;
        ASSERT_TRUE(crash::parseSpec(line, &back)) << line;
        EXPECT_EQ(back.scenario, s.scenario);
        EXPECT_EQ(back.event, s.event);
        EXPECT_EQ(back.mode, s.mode);
        EXPECT_EQ(back.seed, s.seed);
    }
    EXPECT_EQ(crash::formatSpec(specs[0]), "heap:217:rand:3");

    crash::SweepSpec out;
    EXPECT_FALSE(crash::parseSpec("", &out));
    EXPECT_FALSE(crash::parseSpec("heap:12:rand", &out));
    EXPECT_FALSE(crash::parseSpec("heap:12:bogus:0", &out));
    EXPECT_FALSE(crash::parseSpec("heap:x:rand:0", &out));
    EXPECT_FALSE(crash::parseSpec(":12:rand:0", &out));
}

TEST(SweepSpec, ModeNames)
{
    const scm::CrashPersistMode all[] = {
        scm::CrashPersistMode::kDropUnfenced,
        scm::CrashPersistMode::kKeepIssued,
        scm::CrashPersistMode::kKeepAll,
        scm::CrashPersistMode::kRandomSubset,
    };
    for (const auto m : all) {
        scm::CrashPersistMode back;
        ASSERT_TRUE(crash::modeFromName(crash::modeName(m), &back));
        EXPECT_EQ(back, m);
    }
}

TEST(Sweeper, EveryScenarioHasCleanBaseline)
{
    // countEvents runs prepare + workload + clean shutdown + recovery +
    // verify — the no-crash invariant must hold for every registered
    // scenario, and each workload must issue at least one event to
    // sweep.
    crash::Sweeper sweeper(testOptions());
    for (const auto &name : crash::ScenarioRegistry::instance().names()) {
        uint64_t events = 0;
        ASSERT_NO_THROW(events = sweeper.countEvents(name)) << name;
        EXPECT_GT(events, 0u) << name;
    }
}

TEST(Sweeper, EventCountIsDeterministic)
{
    // The whole repro story rests on the workload issuing an identical
    // event sequence every run.
    crash::Sweeper sweeper(testOptions());
    for (const auto &name : {"rawl", "heap", "region"})
        EXPECT_EQ(sweeper.countEvents(name), sweeper.countEvents(name))
            << name;
}

TEST(Sweeper, EpochScenariosSealOneWholeEpochPerSync)
{
    // The group-commit sweeps crash inside epochs of a known shape:
    // without a crash, every sync() of the workload seals exactly one
    // epoch holding all of its members.  Members that conflicted on a
    // stripe would abort, and the abort backoff would seal extra,
    // smaller epochs mid-batch — still whole-epoch on recovery, but not
    // the batches the sweep is meant to crash inside.
    crash::registerBuiltinScenarios();
    const struct {
        const char *name;
        uint64_t epochs;
        uint64_t members;
    } cases[] = {{"group_commit", 2, 3}, {"compact_redo_gc", 2, 2}};
    const bool statsWereOn = obs::enabled();
    obs::setEnabled(true);
    auto &reg = obs::StatsRegistry::instance();
    for (const auto &k : cases) {
        mnemosyne::test::TempDir dir;
        scm::ScmContext c{scm::ScmConfig{}};
        scm::ScopedCtx guard(c);
        mnemosyne::RuntimeConfig rc;
        rc.use_current_scm_context = true;
        rc.region = mnemosyne::test::smallRegionConfig(dir.path());
        rc.small_heap_bytes = 4 << 20;
        rc.big_heap_bytes = 4 << 20;
        rc.txn.log_slots = 8;
        rc.txn.log_slot_bytes = 256 * 1024;
        auto sc = crash::ScenarioRegistry::instance().create(k.name);
        sc->configure(rc);
        mnemosyne::Runtime rt(rc);
        crash::ScenarioEnv env{rt, c};
        sc->prepare(env);

        const uint64_t rounds0 = rt.txns().combiner()->rounds();
        const auto before = reg.rawSnapshot().hdrs.at("mtm.epoch_batch");
        sc->workload(env);
        const auto batch =
            reg.rawSnapshot().hdrs.at("mtm.epoch_batch") - before;
        EXPECT_EQ(rt.txns().combiner()->rounds() - rounds0, k.epochs)
            << k.name;
        EXPECT_EQ(batch.count, k.epochs) << k.name;
        EXPECT_EQ(batch.quantile(0.0), k.members) << k.name;
        EXPECT_EQ(batch.quantile(1.0), k.members) << k.name;
    }
    obs::setEnabled(statsWereOn);
}

TEST(Sweeper, RawlFullSweepHasNoFailures)
{
    crash::Sweeper sweeper(testOptions());
    const auto rep = sweeper.sweep("rawl");
    EXPECT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_GT(rep.events, 0u);
    EXPECT_EQ(rep.trials, rep.events * 4); // drop + keep + 2 rand seeds
    EXPECT_EQ(rep.failures, 0u)
        << "first: " << crash::formatSpec(rep.failed[0].spec) << " — "
        << rep.failed[0].detail;
}

TEST(Sweeper, HeapCrashLeakSweepEveryEvent)
{
    // The heap crash-leak satellite: crash at EVERY persistence event
    // inside a pmalloc/pfree burst (including alloc-after-free), under
    // the strict, keep-issued, and adversarial persistence models; after
    // reincarnation no block may be leaked, doubly owned, or dangling.
    crash::Sweeper sweeper(testOptions());
    const auto rep = sweeper.sweep("heap");
    EXPECT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_GT(rep.events, 0u);
    EXPECT_EQ(rep.skipped, 0u);
    EXPECT_EQ(rep.failures, 0u)
        << "first: " << crash::formatSpec(rep.failed[0].spec) << " — "
        << rep.failed[0].detail;
}

TEST(Sweeper, RegionPublicationSweepEveryEvent)
{
    // pmap/punmap with persistent publication slots: no crash point may
    // leave an orphaned region or a dangling client pointer.
    crash::SweepOptions opts = testOptions();
    opts.random_seeds = 1;
    crash::Sweeper sweeper(opts);
    const auto rep = sweeper.sweep("region");
    EXPECT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_EQ(rep.failures, 0u)
        << "first: " << crash::formatSpec(rep.failed[0].spec) << " — "
        << rep.failed[0].detail;
}

TEST(Sweeper, StridedMtmAndHashSweepsHaveNoFailures)
{
    // The bigger transactional scenarios, strided to stay tier-1 fast;
    // the bounded crash_sweep ctest target and the nightly job cover
    // them exhaustively.
    crash::SweepOptions opts = testOptions();
    opts.stride = 5;
    opts.random_seeds = 1;
    crash::Sweeper sweeper(opts);
    const auto rep = sweeper.sweepAll({"mtm", "hash"});
    EXPECT_GT(rep.trials, 0u);
    for (const auto &s : rep.scenarios) {
        EXPECT_TRUE(s.error.empty()) << s.scenario << ": " << s.error;
        EXPECT_EQ(s.failures, 0u)
            << s.scenario << " first: "
            << crash::formatSpec(s.failed[0].spec) << " — "
            << s.failed[0].detail;
    }
}

TEST(Sweeper, BudgetSkipsInsteadOfHanging)
{
    crash::SweepOptions opts = testOptions();
    opts.budget_ms = 1; // expires immediately: every trial skips
    crash::Sweeper sweeper(opts);
    const auto rep = sweeper.sweep("rawl");
    EXPECT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_EQ(rep.trials + rep.skipped, rep.events * 4);
    EXPECT_GT(rep.skipped, 0u);
}

TEST(Sweeper, InjectedBugIsCaughtWithReplayableRepro)
{
    // End-to-end detector check: a data+commit protocol whose ordering
    // fence was elided MUST fail under the adversarial random-subset
    // model (the commit word can outlive its payload), and the repro
    // spec must replay to the identical failure.
    crash::registerSyntheticBugScenario();
    crash::SweepOptions opts = testOptions();
    opts.modes = {scm::CrashPersistMode::kRandomSubset};
    opts.random_seeds = 4;
    crash::Sweeper sweeper(opts);
    const auto rep = sweeper.sweep("bug_onefence");
    EXPECT_TRUE(rep.error.empty()) << rep.error;
    ASSERT_GT(rep.failures, 0u)
        << "the one-fence bug escaped an exhaustive adversarial sweep";

    // Every failure must replay deterministically: same verdict, same
    // diagnostic.
    const auto &first = rep.failed[0];
    crash::SweepSpec spec;
    ASSERT_TRUE(crash::parseSpec(crash::formatSpec(first.spec), &spec));
    for (int round = 0; round < 2; ++round) {
        const auto replay = sweeper.runTrial(spec);
        EXPECT_TRUE(replay.crashed);
        EXPECT_FALSE(replay.passed);
        EXPECT_EQ(replay.detail, first.detail);
    }
}

TEST(Sweeper, CorrectProtocolsSurviveTheBugCatchingModes)
{
    // The exact options that catch bug_onefence must NOT flag the real
    // tornbit log — the detector has teeth but no false positives.
    crash::SweepOptions opts = testOptions();
    opts.modes = {scm::CrashPersistMode::kRandomSubset};
    opts.random_seeds = 4;
    crash::Sweeper sweeper(opts);
    const auto rep = sweeper.sweep("rawl");
    EXPECT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_EQ(rep.failures, 0u);
}
