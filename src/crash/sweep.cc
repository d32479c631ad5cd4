#include "crash/sweep.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "crash/crash_harness.h"
#include "obs/flight_recorder.h"
#include "obs/hdr_histogram.h"

namespace mnemosyne::crash {

namespace {

struct SweepCounters {
    obs::Counter events{"sweep.events_enumerated"};
    obs::Counter trials{"sweep.trials"};
    obs::Counter failures{"sweep.failures"};
    obs::HdrHistogram recovery{"sweep.recovery_ns"};
};

SweepCounters &
ctrs()
{
    static SweepCounters c;
    return c;
}

/** A self-deleting per-trial backing-file directory. */
class TrialDir
{
  public:
    explicit TrialDir(const std::string &root)
    {
        std::string tmpl = root + "/mn_sweep_XXXXXX";
        if (!mkdtemp(tmpl.data()))
            throw std::runtime_error("sweep: mkdtemp failed under " + root);
        path_ = tmpl;
    }

    ~TrialDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TrialDir(const TrialDir &) = delete;
    TrialDir &operator=(const TrialDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

using clk = std::chrono::steady_clock;

} // namespace

const char *
modeName(scm::CrashPersistMode m)
{
    switch (m) {
    case scm::CrashPersistMode::kDropUnfenced: return "drop";
    case scm::CrashPersistMode::kKeepIssued: return "keep";
    case scm::CrashPersistMode::kKeepAll: return "all";
    case scm::CrashPersistMode::kRandomSubset: return "rand";
    }
    return "?";
}

bool
modeFromName(const std::string &s, scm::CrashPersistMode *out)
{
    if (s == "drop")
        *out = scm::CrashPersistMode::kDropUnfenced;
    else if (s == "keep")
        *out = scm::CrashPersistMode::kKeepIssued;
    else if (s == "all")
        *out = scm::CrashPersistMode::kKeepAll;
    else if (s == "rand")
        *out = scm::CrashPersistMode::kRandomSubset;
    else
        return false;
    return true;
}

std::string
formatSpec(const SweepSpec &spec)
{
    std::ostringstream os;
    os << spec.scenario << ":" << spec.event << ":" << modeName(spec.mode)
       << ":" << spec.seed;
    return os.str();
}

bool
parseSpec(const std::string &s, SweepSpec *out)
{
    // scenario:event:mode:seed — scenario names contain no ':'.
    std::vector<std::string> parts;
    size_t from = 0;
    for (;;) {
        const size_t colon = s.find(':', from);
        if (colon == std::string::npos) {
            parts.push_back(s.substr(from));
            break;
        }
        parts.push_back(s.substr(from, colon - from));
        from = colon + 1;
    }
    if (parts.size() != 4 || parts[0].empty())
        return false;
    SweepSpec spec;
    spec.scenario = parts[0];
    char *end = nullptr;
    spec.event = std::strtoull(parts[1].c_str(), &end, 10);
    if (!end || *end != '\0' || parts[1].empty())
        return false;
    if (!modeFromName(parts[2], &spec.mode))
        return false;
    spec.seed = std::strtoull(parts[3].c_str(), &end, 10);
    if (!end || *end != '\0' || parts[3].empty())
        return false;
    *out = spec;
    return true;
}

std::vector<std::string>
SweepReport::reproSpecs() const
{
    std::vector<std::string> out;
    for (const auto &s : scenarios)
        for (const auto &f : s.failed)
            out.push_back(formatSpec(f.spec));
    return out;
}

Sweeper::Sweeper(SweepOptions opts) : opts_(std::move(opts))
{
    if (opts_.workers == 0) {
        const size_t hw = std::thread::hardware_concurrency();
        opts_.workers = hw ? std::min<size_t>(hw, 8) : 2;
    }
    if (opts_.stride == 0)
        opts_.stride = 1;
    if (opts_.random_seeds == 0)
        opts_.random_seeds = 1;
    registerBuiltinScenarios();
}

RuntimeConfig
Sweeper::trialConfig(const std::string &dir, size_t worker) const
{
    RuntimeConfig rc;
    rc.use_current_scm_context = true;
    rc.region.backing_dir = dir;
    rc.region.scm_capacity = size_t(64) << 20;
    // Each worker owns a disjoint slice of persistent address space, so
    // concurrent trials can reserve and MAP_FIXED without colliding.
    const uintptr_t base =
        opts_.va_base ? opts_.va_base : region::RegionConfig{}.va_base;
    rc.region.va_base = base + uintptr_t(worker) * opts_.va_stride;
    rc.region.va_reserve = opts_.va_stride;
    rc.small_heap_bytes = 4 << 20;
    rc.big_heap_bytes = 4 << 20;
    rc.txn.log_slots = 8;
    rc.txn.log_slot_bytes = 256 * 1024;
    return rc;
}

uint64_t
Sweeper::countEvents(const std::string &scenario)
{
    auto sc = ScenarioRegistry::instance().create(scenario);
    TrialDir dir(opts_.tmp_root);
    uint64_t n = 0;
    {
        scm::ScmContext c{scm::ScmConfig{}};
        scm::ScopedThreadCtx guard(c);
        RuntimeConfig rcfg = trialConfig(dir.path(), 0);
        sc->configure(rcfg);
        Runtime rt(rcfg);
        ScenarioEnv env{rt, c};
        sc->prepare(env);
        // The swept window starts from a fully durable base: prepare's
        // effects cannot be part of any crash ambiguity.
        c.persistAll();
        const uint64_t start = c.eventCount();
        sc->workload(env);
        n = c.eventCount() - start;
    } // clean shutdown
    scm::ScmContext c2{scm::ScmConfig{}};
    scm::ScopedThreadCtx guard2(c2);
    RuntimeConfig rcfg2 = trialConfig(dir.path(), 0);
    sc->configure(rcfg2);
    Runtime rt2(rcfg2);
    ScenarioEnv env2{rt2, c2};
    const std::string err = sc->verify(env2);
    if (!err.empty()) {
        throw std::runtime_error("baseline (no-crash) invariant failure "
                                 "for '" + scenario + "': " + err);
    }
    return n;
}

TrialResult
Sweeper::runTrialIn(const SweepSpec &spec, size_t worker)
{
    TrialResult res;
    res.spec = spec;

    // Record every transaction of the trial in this worker's flight
    // ring: when verification fails, the victim's last transactions —
    // with span timings and log byte counts — ride along in the repro.
    auto &flight = obs::FlightRecorder::instance();
    flight.setSampleEvery(1);
    flight.setEnabled(true);
    flight.clearThread();
    std::vector<obs::FlightRecord> flightTail;

    try {
        TrialDir dir(opts_.tmp_root);
        auto sc = ScenarioRegistry::instance().create(spec.scenario);
        {
            scm::ScmConfig scfg;
            scfg.crash_mode = spec.mode;
            scfg.crash_seed = spec.seed;
            scm::ScmContext c(scfg);
            scm::ScopedThreadCtx guard(c);
            RuntimeConfig rcfg = trialConfig(dir.path(), worker);
            sc->configure(rcfg);
            Runtime rt(rcfg);
            ScenarioEnv env{rt, c};
            sc->prepare(env);
            c.persistAll();
            const uint64_t start = c.eventCount();
            try {
                CrashPoint cp(c, start + spec.event);
                sc->workload(env);
            } catch (const scm::CrashNow &) {
                res.crashed = true;
            }
            // Compute the post-crash image under this trial's mode and
            // seed; halt so the Runtime teardown below cannot write.
            c.crash(/*halt_after=*/true);

            // Capture the victim's flight-recorder tail now, before
            // recovery-time transactions overwrite the ring.
            flightTail = flight.threadSnapshot();
        }
        // Reincarnate over the same backing files, under a pristine
        // context, and check the scenario's invariant.
        scm::ScmContext c2{scm::ScmConfig{}};
        scm::ScopedThreadCtx guard2(c2);
        RuntimeConfig rcfg2 = trialConfig(dir.path(), worker);
        sc->configure(rcfg2);
        const auto t0 = clk::now();
        Runtime rt2(rcfg2);
        res.recovery_ns =
            uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         clk::now() - t0)
                         .count());
        ScenarioEnv env2{rt2, c2};
        res.detail = sc->verify(env2);
        res.passed = res.detail.empty();
    } catch (const std::exception &e) {
        res.passed = false;
        res.detail = std::string("exception: ") + e.what();
    }
    if (!res.passed && !flightTail.empty()) {
        // Mismatch forensics: the last few transactions the victim ran
        // before the crash point, newest last.
        constexpr size_t kTailRecords = 8;
        if (flightTail.size() > kTailRecords)
            flightTail.erase(flightTail.begin(),
                             flightTail.end() - kTailRecords);
        res.detail += "\nflight-recorder tail (last ";
        res.detail += std::to_string(flightTail.size());
        res.detail += " txns): ";
        res.detail += obs::FlightRecorder::recordsJson(flightTail);
    }
    ctrs().trials.add(1);
    if (!res.passed)
        ctrs().failures.add(1);
    if (res.recovery_ns)
        ctrs().recovery.record(res.recovery_ns);
    return res;
}

TrialResult
Sweeper::runTrial(const SweepSpec &spec)
{
    if (!ScenarioRegistry::instance().has(spec.scenario))
        throw std::out_of_range("unknown crash scenario: " + spec.scenario);
    return runTrialIn(spec, 0);
}

ScenarioReport
Sweeper::sweep(const std::string &scenario)
{
    ScenarioReport rep;
    rep.scenario = scenario;
    try {
        rep.events = countEvents(scenario);
    } catch (const std::exception &e) {
        rep.error = e.what();
        return rep;
    }
    ctrs().events.add(rep.events);

    std::vector<SweepSpec> specs;
    for (uint64_t k = 1; k <= rep.events; k += opts_.stride) {
        for (const auto mode : opts_.modes) {
            if (mode == scm::CrashPersistMode::kRandomSubset) {
                for (uint64_t s = 1; s <= opts_.random_seeds; ++s)
                    specs.push_back(SweepSpec{scenario, k, mode, s});
            } else {
                specs.push_back(SweepSpec{scenario, k, mode, 0});
            }
        }
    }
    if (opts_.max_trials && specs.size() > opts_.max_trials)
        specs.resize(opts_.max_trials);

    const auto deadline =
        opts_.budget_ms
            ? clk::now() + std::chrono::milliseconds(opts_.budget_ms)
            : clk::time_point::max();

    std::atomic<size_t> next{0};
    std::mutex mu;
    const size_t nworkers =
        std::max<size_t>(1, std::min(opts_.workers, specs.size()));
    std::vector<std::thread> pool;
    pool.reserve(nworkers);
    for (size_t w = 0; w < nworkers; ++w) {
        pool.emplace_back([&, w] {
            for (;;) {
                const size_t i = next.fetch_add(1,
                                                std::memory_order_relaxed);
                if (i >= specs.size())
                    return;
                if (clk::now() >= deadline) {
                    std::lock_guard<std::mutex> g(mu);
                    ++rep.skipped;
                    continue;
                }
                TrialResult r = runTrialIn(specs[i], w);
                std::lock_guard<std::mutex> g(mu);
                ++rep.trials;
                if (!r.passed) {
                    ++rep.failures;
                    rep.failed.push_back(std::move(r));
                }
            }
        });
    }
    for (auto &t : pool)
        t.join();
    return rep;
}

SweepReport
Sweeper::sweepAll(const std::vector<std::string> &names)
{
    SweepReport report;
    const std::vector<std::string> todo =
        names.empty() ? ScenarioRegistry::instance().names() : names;

    // A shared wall-clock budget: each scenario gets what remains.
    const auto start = clk::now();
    const uint64_t total_budget = opts_.budget_ms;
    for (const auto &name : todo) {
        if (total_budget) {
            const auto spent =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    clk::now() - start)
                    .count();
            opts_.budget_ms =
                uint64_t(spent) >= total_budget
                    ? 1 // expired: baseline still runs, trials skip
                    : total_budget - uint64_t(spent);
        }
        report.scenarios.push_back(sweep(name));
        const auto &rep = report.scenarios.back();
        report.trials += rep.trials;
        report.skipped += rep.skipped;
        report.failures += rep.failures;
    }
    opts_.budget_ms = total_budget;
    return report;
}

} // namespace mnemosyne::crash
