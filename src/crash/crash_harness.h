/**
 * @file
 * Crash-injection harness: reusable machinery behind the reliability
 * methodology of paper section 6.2 — "we wrote a crash stress program,
 * which uses transactions to perform random updates to memory using a
 * known seed.  We verified that after a crash, memory contains the
 * correct random values."
 *
 * The harness builds on the SCM emulator's write hook (crash at an
 * exact persistence event) and adversarial crash modes (random subsets
 * of unfenced writes survive).
 */

#ifndef MNEMOSYNE_CRASH_CRASH_HARNESS_H_
#define MNEMOSYNE_CRASH_CRASH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/runtime.h"
#include "scm/scm.h"

namespace mnemosyne::crash {

/**
 * One-shot crash injector: fires CrashNow at the first persistence
 * event >= @p at.  The context is halted at that instant (haltNow), so
 * code unwinding past the crash point cannot alter the post-crash
 * image.
 */
class CrashPoint
{
  public:
    CrashPoint(scm::ScmContext &c, uint64_t at);
    ~CrashPoint();

    CrashPoint(const CrashPoint &) = delete;
    CrashPoint &operator=(const CrashPoint &) = delete;

    bool fired() const { return fired_; }

    /** The event number the crash fired at (0 when !fired()). */
    uint64_t firedEvent() const { return firedEvent_; }

  private:
    scm::ScmContext &c_;
    bool fired_ = false;
    uint64_t firedEvent_ = 0;
};

/** Result of one crash-stress round. */
struct StressResult {
    uint64_t committed_ops = 0;   ///< Ops whose atomic() returned.
    bool crashed = false;         ///< Whether the injected crash fired.
    bool verified = false;        ///< Post-recovery state matched.
    std::string mismatch;         ///< Diagnostic when !verified.

    // Failure forensics (valid when !verified), so a sweep failure is
    // actionable without re-running under a debugger:
    size_t bad_index = 0;         ///< First mismatching word index.
    uint64_t expected = 0;        ///< Expected value of that word.
    uint64_t actual = 0;          ///< Value found in persistent memory.
    size_t mismatched_words = 0;  ///< Total words that differ.
    uint64_t crash_event = 0;     ///< Event the crash fired at (0 = n/a).
};

/**
 * The crash stress engine: performs @p total_ops seeded random
 * multi-word transactional updates over a persistent array, crashing at
 * a pseudo-random persistence event; verify() recomputes the expected
 * image from the committed prefix and compares.
 */
class StressEngine
{
  public:
    static constexpr size_t kWords = 256;
    static constexpr int kWordsPerOp = 4;

    StressEngine(Runtime &rt, uint64_t seed,
                 const std::string &array_name = "crash_stress");

    /** Run ops until done or crashed (CrashNow is swallowed). */
    uint64_t run(scm::ScmContext &c, uint64_t total_ops,
                 uint64_t crash_at_event);

    /**
     * Run ops with no crash point of its own: CrashNow from an external
     * injector (the sweeper's driver) propagates.  @p committed is
     * updated after every completed op so the caller sees the committed
     * prefix even when an exception unwinds.
     */
    void runOps(uint64_t total_ops, uint64_t *committed);

    /** Event number the last run()'s injected crash fired at (0 if it
     *  completed without crashing). */
    uint64_t lastCrashEvent() const { return lastCrashEvent_; }

    /**
     * After recovery (fresh runtime on the same backing files): check
     * the array against the committed prefix (allowing the one
     * ambiguous in-flight op).  @p crash_event, when known, is embedded
     * in the failure diagnostics.
     */
    static StressResult verify(Runtime &rt, uint64_t seed,
                               uint64_t committed_ops,
                               const std::string &array_name =
                                   "crash_stress",
                               uint64_t crash_event = 0);

    /** The seeded (index, value) targets of op @p op — public so sweep
     *  scenarios can replay the expected image. */
    static void opTargets(uint64_t seed, uint64_t op, size_t *idx,
                          uint64_t *val);

  private:
    Runtime &rt_;
    uint64_t seed_;
    uint64_t *arr_;
    uint64_t lastCrashEvent_ = 0;
};

/**
 * Inject bit flips into a byte range (used to validate the torn-bit
 * detection of the RAWL, section 6.2).  Returns positions flipped.
 */
std::vector<size_t> flipRandomBits(void *data, size_t bytes, size_t flips,
                                   uint64_t seed);

} // namespace mnemosyne::crash

#endif // MNEMOSYNE_CRASH_CRASH_HARNESS_H_
