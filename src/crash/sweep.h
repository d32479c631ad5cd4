/**
 * @file
 * The exhaustive crash-consistency sweeper.
 *
 * For every registered scenario (crash/scenario.h) the sweeper:
 *
 *  1. runs a *baseline* trial: prepare + full workload + clean
 *     shutdown + recovery + verify, counting the N persistence events
 *     the workload issues (the SCM emulator numbers every store /
 *     wtstore / flush / fence) and checking the invariant holds with
 *     no crash at all;
 *
 *  2. fans the cross product {event k = 1..N} x {crash persistence
 *     mode} x {seed, for kRandomSubset} out over a worker pool.  Each
 *     trial runs in full isolation — its own ScmContext (passed to the
 *     trial's Runtime, which hands it to every layer), its own
 *     backing-file tmpdir, its own slice of persistent address space —
 *     so workers never share emulator or mapping state;
 *
 *  3. for each trial: replays prepare + workload with a crash point at
 *     event k, computes the post-crash SCM image under the trial's
 *     mode/seed, reincarnates a fresh Runtime over the same backing
 *     files, and checks the scenario invariant.
 *
 * Every failure carries a deterministic repro spec,
 * "scenario:event:mode:seed" (e.g. "heap:217:rand:3"), replayable with
 * runTrial() or `crash_sweep --repro` — workloads are deterministic
 * and event numbers are window-relative, so a spec reproduces
 * identically regardless of which worker or machine found it.
 */

#ifndef MNEMOSYNE_CRASH_SWEEP_H_
#define MNEMOSYNE_CRASH_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crash/scenario.h"
#include "scm/scm.h"

namespace mnemosyne::crash {

/** One point in the sweep space. */
struct SweepSpec {
    std::string scenario;
    uint64_t event = 0;     ///< Crash at the event-th persistence event
                            ///< of the workload window (1-based).
    scm::CrashPersistMode mode = scm::CrashPersistMode::kDropUnfenced;
    uint64_t seed = 0;      ///< kRandomSubset survival seed.
};

/** Short stable mode names used in repro specs: drop/keep/all/rand. */
const char *modeName(scm::CrashPersistMode m);
bool modeFromName(const std::string &s, scm::CrashPersistMode *out);

/** "scenario:event:mode:seed" (seed omitted as 0 for non-rand modes). */
std::string formatSpec(const SweepSpec &spec);
bool parseSpec(const std::string &s, SweepSpec *out);

struct SweepOptions {
    /** Crash modes swept per event.  kKeepAll is a no-loss model and
     *  catches nothing the baseline doesn't, so it is off by default. */
    std::vector<scm::CrashPersistMode> modes{
        scm::CrashPersistMode::kDropUnfenced,
        scm::CrashPersistMode::kKeepIssued,
        scm::CrashPersistMode::kRandomSubset,
    };

    /** Seeds swept per event under kRandomSubset. */
    uint64_t random_seeds = 4;

    /** Worker threads (0 = one per core, capped at 8). */
    size_t workers = 0;

    /** Crash at events 1, 1+stride, 1+2*stride, ... (1 = exhaustive). */
    uint64_t stride = 1;

    /** Cap on trials per scenario (0 = unlimited). */
    uint64_t max_trials = 0;

    /** Wall-clock budget for a whole sweep (0 = unlimited).  Trials
     *  not started when it expires are skipped and counted. */
    uint64_t budget_ms = 0;

    /** Parent directory for per-trial backing-file tmpdirs. */
    std::string tmp_root = "/tmp";

    /** Base of the swept persistent address range (0 = the platform
     *  default).  Worker w uses va_base + w * va_stride; va_stride is
     *  also each trial's va_reserve, so worker ranges never overlap. */
    uintptr_t va_base = 0;
    uintptr_t va_stride = uintptr_t(1) << 30;
};

/** Outcome of one trial. */
struct TrialResult {
    SweepSpec spec;
    bool crashed = false;    ///< The injected crash point fired.
    bool passed = false;
    std::string detail;      ///< Invariant diagnostic / exception text.
    uint64_t recovery_ns = 0;///< Runtime reincarnation latency.
};

struct ScenarioReport {
    std::string scenario;
    uint64_t events = 0;     ///< Persistence events in the workload.
    uint64_t trials = 0;
    uint64_t skipped = 0;    ///< Not run (budget exhausted).
    uint64_t failures = 0;
    std::vector<TrialResult> failed;    ///< Failures only.
    std::string error;       ///< Baseline failure; "" when swept.
};

struct SweepReport {
    std::vector<ScenarioReport> scenarios;
    uint64_t trials = 0;
    uint64_t skipped = 0;
    uint64_t failures = 0;

    bool
    ok() const
    {
        if (failures)
            return false;
        for (const auto &s : scenarios)
            if (!s.error.empty())
                return false;
        return true;
    }

    /** One repro spec line per failure. */
    std::vector<std::string> reproSpecs() const;
};

class Sweeper
{
  public:
    explicit Sweeper(SweepOptions opts = {});

    /**
     * Baseline run: count the workload's persistence events and check
     * the invariant holds across a clean shutdown + recovery.  Throws
     * std::runtime_error when the no-crash invariant already fails.
     */
    uint64_t countEvents(const std::string &scenario);

    /** Sweep one scenario across its full event x mode x seed space. */
    ScenarioReport sweep(const std::string &scenario);

    /** Sweep the named scenarios (empty = every registered one). */
    SweepReport sweepAll(const std::vector<std::string> &names = {});

    /**
     * Run one trial — the --repro path.  Deterministic: the same spec
     * always yields the same outcome.
     */
    TrialResult runTrial(const SweepSpec &spec);

    const SweepOptions &options() const { return opts_; }

  private:
    TrialResult runTrialIn(const SweepSpec &spec, size_t worker);
    RuntimeConfig trialConfig(scm::ScmContext &c, const std::string &dir,
                              size_t worker) const;

    SweepOptions opts_;
};

} // namespace mnemosyne::crash

#endif // MNEMOSYNE_CRASH_SWEEP_H_
