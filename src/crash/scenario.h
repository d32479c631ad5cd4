/**
 * @file
 * Crash-sweep scenarios: the per-layer units the exhaustive
 * crash-consistency sweeper (crash/sweep.h) drives.
 *
 * A scenario packages, for one layer of the system (RAWL log, durable
 * transactions, persistent heap, region table, a ds/ structure), three
 * things:
 *
 *  - prepare():  bring up the layer's persistent state (runs before the
 *                swept window; the driver makes its effects durable),
 *  - workload(): a short, single-threaded, deterministic burst of
 *                operations — the window whose every persistence event
 *                the sweeper crashes at,
 *  - verify():   the layer's crash invariant, checked against a freshly
 *                reincarnated Runtime over the same backing files.
 *
 * Determinism contract: workload() must issue an identical sequence of
 * persistence events on every run (fixed seeds, no threads, no
 * wall-clock or address-dependent branching).  The sweeper counts the
 * events once in a baseline run and then replays the workload crashing
 * at event k for every k — so a failure's repro spec
 * ("scenario:event:mode:seed") replays the same way anywhere.
 *
 * Scenario objects live across one whole trial: prepare() and
 * workload() run against the pre-crash Runtime, verify() against the
 * post-recovery one.  Volatile members carried across (e.g. the count
 * of committed operations) are how verify() knows the expected state;
 * persistent pointers must be re-resolved from the verify-side Runtime.
 */

#ifndef MNEMOSYNE_CRASH_SCENARIO_H_
#define MNEMOSYNE_CRASH_SCENARIO_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/runtime.h"
#include "scm/scm.h"

namespace mnemosyne::crash {

/** What a scenario phase gets to work with. */
struct ScenarioEnv {
    Runtime &rt;
    scm::ScmContext &scm;
};

class Scenario
{
  public:
    virtual ~Scenario() = default;

    virtual std::string name() const = 0;

    /** Adjust the trial's RuntimeConfig (heap/log sizes) before the
     *  Runtime is constructed.  Applied to both the pre-crash and the
     *  recovery Runtime. */
    virtual void configure(RuntimeConfig &cfg) { (void)cfg; }

    /** Set up persistent state.  Runs before the swept window; the
     *  driver persists its effects, so the window starts from a fully
     *  durable base. */
    virtual void prepare(ScenarioEnv &env) { (void)env; }

    /** The deterministic operation burst the sweeper crashes inside.
     *  CrashNow from the injected crash point propagates out. */
    virtual void workload(ScenarioEnv &env) = 0;

    /** Check the layer's invariant after recovery.  Returns "" when it
     *  holds, else a diagnostic. */
    virtual std::string verify(ScenarioEnv &env) = 0;
};

/**
 * Name -> factory registry.  Each trial creates a fresh scenario
 * instance, so trials never share mutable state.
 */
class ScenarioRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<Scenario>()>;

    static ScenarioRegistry &instance();

    /** Register (or replace) a scenario factory. */
    void add(const std::string &name, Factory factory);

    /** Instantiate; throws std::out_of_range for unknown names. */
    std::unique_ptr<Scenario> create(const std::string &name) const;

    bool has(const std::string &name) const;
    std::vector<std::string> names() const;

  private:
    std::map<std::string, Factory> factories_;
};

/**
 * Register the built-in per-layer scenarios (idempotent):
 *   rawl    — torn-bit log appends; recovered records are an exact,
 *             uncorrupted prefix.
 *   mtm     — transactional random updates (the section 6.2 stress
 *             engine); memory matches the committed prefix.
 *   heap    — pmalloc/pfree bursts; after reincarnation no block is
 *             leaked, doubly owned, or overlapping (reachable slots
 *             exactly match the heap's live-block accounting).
 *   region  — pmap/punmap with persistent publication slots; regions
 *             and client pointer cells agree one-to-one (no orphaned
 *             region, no dangling pointer).
 *   hash    — PHashTable puts/deletes; contents match the committed
 *             operation prefix (one in-flight op allowed).
 *   group_commit — commit_async epochs; whole-epoch all-or-nothing.
 *   compact_redo / compact_redo_gc — commit-record format coverage
 *             (the v2 varint run-length stream, alone and under the
 *             epoch combiner); recovery must land on an exact
 *             transaction prefix.
 */
void registerBuiltinScenarios();

/**
 * Register "bug_onefence": a deliberately broken data+commit protocol
 * (the fence between the payload words and the commit word is elided,
 * as if a tornbit append skipped its ordering fence).  Under
 * CrashPersistMode::kRandomSubset the commit word can survive a crash
 * that drops payload words, which verify() detects — the sweeper's
 * own end-to-end test that injected bugs are caught and reproducible.
 * Never registered by default; tests and `crash_sweep --with-bug` opt
 * in.
 */
void registerSyntheticBugScenario();

} // namespace mnemosyne::crash

#endif // MNEMOSYNE_CRASH_SCENARIO_H_
