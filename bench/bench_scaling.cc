/**
 * @file
 * Multi-core scaling of the persistence stack (the "per-thread" design
 * claims of paper section 5 and the Hoard heritage of section 4.3).
 *
 * Two workloads, each at 1/2/4/8 threads:
 *
 *  - pmalloc-heavy: threads churn allocations through private slot
 *    ranges (sizes spanning both the superblock heap and the striped
 *    big allocator).  Measured twice: with the heap serialized on one
 *    global mutex (the pre-scaling baseline, RuntimeConfig
 *    heap_global_lock=true) and with the per-thread Hoard caches.
 *  - txn-heavy: threads run the PR3 update-transaction shape (2 reads +
 *    4 writes on distinct lines) against disjoint array regions, so the
 *    measurement exercises the log/lock/commit paths, not aborts.
 *    Runs on the software fast lane (latency_mode=kNone), comparable to
 *    bench_txn_costs' PR3 headline number.  Measured three ways: the
 *    per-commit-fence baseline, the fence-epoch combiner with
 *    synchronous commits, and the combiner with commit_async + one
 *    sync() barrier at the end — the fences/txn column is the group
 *    commit claim (the baseline pays ~2, commit + truncation; the
 *    combiner must amortize below 1 at 8 threads).  Fence counts come
 *    from the SCM emulator's own statistics, so they are exact and
 *    immune to time-slicing, unlike wall-clock throughput on an
 *    oversubscribed host.
 *
 * Methodology for the heap cells: SCM latency is emulated virtually
 * (LatencyMode::kVirtual) at the 2000 ns write-latency point of the
 * paper's Figure 7 sensitivity sweep, and each cell is scored in
 * MODELLED time = wall time + emulated device time / overlap.  Under
 * the global mutex every device write the heap issues happens inside
 * the one lock, so its delay serializes (overlap = 1); with per-thread
 * caches each thread's writes go to its own superblocks and private
 * redo log, so delays overlap across threads (overlap = nthreads; the
 * few pool transfers, counted by heap.superblock_transfers, are charged
 * as parallel too — a ~2% approximation).  This is the only honest way
 * to show lock-level scaling on a host with fewer CPUs than worker
 * threads: raw wall-clock of CPU-bound work is pinned to serial speed
 * by time-slicing no matter how the locks are arranged, while the
 * serialized-vs-overlapped device time is precisely the effect the
 * per-thread design removes.  Raw wall-clock numbers ride along in the
 * JSON for completeness, and cells that oversubscribe the CPUs are
 * annotated via bench::scalingNote().
 *
 * Contention counters (heap.lock_contended, heap.lock_wait_ns,
 * heap.superblock_transfers) are sampled around every heap cell so the
 * before/after curves in BENCH_PR4.json are self-describing about WHERE
 * the serialization went.
 */

#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "mtm/txn_manager.h"
#include "obs/flight_recorder.h"
#include "runtime/runtime.h"

namespace bench = mnemosyne::bench;
namespace scm = mnemosyne::scm;
namespace obs = mnemosyne::obs;
using mnemosyne::Runtime;

namespace {

scm::ScmConfig
fastLaneScm()
{
    scm::ScmConfig cfg;
    cfg.latency_mode = scm::LatencyMode::kNone;
    cfg.failure_tracking = false;
    return cfg;
}

struct HeapCell {
    double ops_per_sec = 0;      ///< Cycles/s in modelled time.
    double wall_ops_per_sec = 0; ///< Cycles/s in raw wall time.
    double device_ms = 0;        ///< Emulated SCM time charged (total).
    double lock_contended = 0;   ///< Contended heap-lock acquisitions.
    double lock_wait_ms = 0;     ///< Total blocked time across threads.
    double transfers = 0;        ///< Superblock cache<->pool transfers.
};

/** SCM write latency for the heap cells: the top of the paper's
 *  Figure 7 sensitivity sweep (150/1000/2000 ns). */
constexpr uint64_t kHeapCellLatencyNs = 2000;

/** One pmalloc/pfree cell: @p nthreads churning private slot ranges. */
HeapCell
runHeapCell(int nthreads, bool global_lock)
{
    constexpr size_t kSlots = 64;        // per thread
    constexpr uint64_t kWarmup = 5000;   // per thread
    constexpr uint64_t kIters = 60000;   // per thread
    // 7 small-heap classes and one big-allocator size; the big size
    // keeps the striped allocator in the picture without dominating.
    static const size_t sizes[] = {16, 40, 96, 200, 440, 1000, 2000, 8192};

    bench::ScratchDir dir(std::string("scaling_heap_") +
                          (global_lock ? "base" : "hoard") +
                          std::to_string(nthreads));
    auto scmCfg = fastLaneScm();
    scmCfg.latency_mode = scm::LatencyMode::kVirtual;
    scmCfg.write_latency_ns = kHeapCellLatencyNs;
    scm::ScmContext ctx(scmCfg);
    scm::ScopedCtx guard(ctx);
    auto rc = bench::paperRuntimeConfig(dir.path(),
                                       mnemosyne::mtm::Truncation::kSync, 32);
    rc.heap_global_lock = global_lock;
    Runtime rt(rc);

    auto **slots = static_cast<void **>(rt.regions().pstaticVar(
        "scaling_slots", 8 * kSlots * sizeof(void *), nullptr));

    auto churn = [&](int t, uint64_t iters, uint64_t seed) {
        std::mt19937_64 rng(seed);
        void **mine = slots + size_t(t) * kSlots;
        for (uint64_t i = 0; i < iters; ++i) {
            void **slot = &mine[rng() % kSlots];
            if (*slot)
                rt.pfree(slot);
            rt.pmalloc(sizes[rng() % 8], slot);
        }
    };
    auto sweep = [&] {
        for (size_t i = 0; i < 8 * kSlots; ++i)
            if (slots[i])
                rt.pfree(&slots[i]);
    };

    auto runThreads = [&](uint64_t iters, uint64_t round) {
        std::vector<std::thread> ts;
        for (int t = 0; t < nthreads; ++t)
            ts.emplace_back(churn, t, iters, round * 1000 + t);
        for (auto &th : ts)
            th.join();
    };

    runThreads(kWarmup, 1);
    sweep();

    const auto &reg = obs::StatsRegistry::instance();
    const std::string before = reg.jsonSnapshot();
    const uint64_t dev0 = ctx.emulatedDelayNs();
    bench::Timer timer;
    runThreads(kIters, 2);
    const double wall_ns = double(timer.ns());
    const uint64_t dev1 = ctx.emulatedDelayNs();
    const std::string after = reg.jsonSnapshot();
    sweep();

    auto delta = [&](const char *key) {
        return bench::statValue(after, key) - bench::statValue(before, key);
    };
    HeapCell cell;
    const double device_ns = double(dev1 - dev0);
    // Device-time overlap: serialized under the global mutex, parallel
    // across per-thread caches (see file header).
    const double overlap = global_lock ? 1.0 : double(nthreads);
    const double cycles = double(kIters) * nthreads;
    // Each cycle is one pmalloc plus (usually) one pfree.
    cell.ops_per_sec = cycles / ((wall_ns + device_ns / overlap) / 1e9);
    cell.wall_ops_per_sec = cycles / (wall_ns / 1e9);
    cell.device_ms = device_ns / 1e6;
    cell.lock_contended = delta("heap.lock_contended") +
                          delta("heap.big_stripe_contended");
    cell.lock_wait_ms = delta("heap.lock_wait_ns.sum") / 1e6;
    cell.transfers = delta("heap.superblock_transfers");
    return cell;
}

struct TxnCell {
    double ops_per_sec = 0;
    double fences_per_txn = 0;   ///< SCM fences / committed txns, exact.
    /** Interval commit-latency percentiles (mtm.commit_ns HDR, sampled
     *  1-in-16 commits); zero when obs is off. */
    double p50 = 0, p95 = 0, p99 = 0;
    uint64_t samples = 0;
};

/** Commit discipline for a txn cell. */
enum class TxnMode {
    kBaseline,      ///< Per-commit fence (group_commit off).
    kCombinerSync,  ///< Fence-epoch combiner, synchronous atomic{}.
    kCombinerAsync, ///< commit_async per txn + one sync() barrier.
};

const char *
txnModeName(TxnMode m)
{
    switch (m) {
    case TxnMode::kBaseline:      return "baseline";
    case TxnMode::kCombinerSync:  return "gc-sync";
    case TxnMode::kCombinerAsync: return "gc-async";
    }
    return "?";
}

/** One txn cell: @p nthreads running the PR3 update shape, disjoint. */
TxnCell
runTxnCell(int nthreads, TxnMode mode)
{
    constexpr uint64_t kWarmup = 20000;  // per thread
    constexpr uint64_t kTxns = 120000;   // per thread
    constexpr size_t kRegion = 4096;     // words per thread

    bench::ScratchDir dir(std::string("scaling_txn_") + txnModeName(mode) +
                          std::to_string(nthreads));
    scm::ScmContext ctx(fastLaneScm());
    scm::ScopedCtx guard(ctx);
    auto rc = bench::paperRuntimeConfig(dir.path());
    if (mode != TxnMode::kBaseline)
        rc.txn.group_commit = true;
    Runtime rt(rc);
    auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
        "scaling_arr", 8 * kRegion * sizeof(uint64_t), nullptr));

    // Threads hold their log lease until EVERY worker finished (the
    // combiner's grace heuristic counts live leases); the done-barrier
    // models long-lived server workers rather than exit-after-loop ones.
    std::atomic<int> done{0};
    auto worker = [&](int t, uint64_t txns, int nDone) {
        obs::setCurrentThreadName("txn-worker-" + std::to_string(t));
        uint64_t *mine = arr + size_t(t) * kRegion;
        auto body = [&](mnemosyne::mtm::Txn &tx, uint64_t i) {
            const uint64_t base = (i * 40) % (kRegion - 32);
            uint64_t v = tx.readT<uint64_t>(&mine[base]);
            v += tx.readT<uint64_t>(&mine[base + 8]);
            for (int k = 0; k < 4; ++k)
                tx.writeT<uint64_t>(&mine[base + 8 * k], v + uint64_t(k));
        };
        if (mode == TxnMode::kCombinerAsync) {
            for (uint64_t i = 0; i < txns; ++i)
                rt.atomicAsync(
                    [&](mnemosyne::mtm::Txn &tx) { body(tx, i); });
        } else {
            for (uint64_t i = 0; i < txns; ++i)
                rt.atomic([&](mnemosyne::mtm::Txn &tx) { body(tx, i); });
        }
        done.fetch_add(1);
        while (done.load() < nDone)
            std::this_thread::yield();
    };

    auto runThreads = [&](uint64_t txns) {
        done.store(0);
        std::vector<std::thread> ts;
        for (int t = 0; t < nthreads; ++t)
            ts.emplace_back(worker, t, txns, nthreads);
        for (auto &th : ts)
            th.join();
        // Durability parity across modes: async tickets are fenced and
        // the truncation backlog drained before the clock stops.
        rt.sync();
        rt.txns().drainTruncation();
    };

    runThreads(kWarmup);
    obs::Phase phase("scaling_txn_" + std::to_string(nthreads) + "t");
    const uint64_t fences0 = ctx.statsSnapshot().fences;
    bench::Timer timer;
    runThreads(kTxns);
    const double secs = timer.s();
    const uint64_t fences1 = ctx.statsSnapshot().fences;
    const auto interval = phase.finish();

    TxnCell cell;
    cell.ops_per_sec = double(kTxns) * nthreads / secs;
    cell.fences_per_txn =
        double(fences1 - fences0) / (double(kTxns) * nthreads);
    cell.samples = interval.hdrCount("mtm.commit_ns");
    if (cell.samples) {
        cell.p50 = double(interval.hdrQuantile("mtm.commit_ns", 0.50));
        cell.p95 = double(interval.hdrQuantile("mtm.commit_ns", 0.95));
        cell.p99 = double(interval.hdrQuantile("mtm.commit_ns", 0.99));
    }
    return cell;
}

} // namespace

int
main()
{
    bench::header("Multi-core scaling: per-thread heaps and "
                  "contention-free log/lock paths");
    bench::paperNote("per-thread logs and Hoard-derived per-thread heaps "
                     "keep the persistence stack scalable (sections 4.3 "
                     "and 5)");

    const std::vector<int> threads = {1, 2, 4, 8};
    std::printf("%s\n\n", bench::scalingNote(threads.back()).c_str());
    const unsigned hw = bench::hwThreads();

    std::vector<HeapCell> base(threads.size()), hoard(threads.size());
    for (size_t i = 0; i < threads.size(); ++i) {
        base[i] = runHeapCell(threads[i], true);
        hoard[i] = runHeapCell(threads[i], false);
        std::printf("  measured pmalloc @ %dT...\n", threads[i]);
    }

    std::printf("\npmalloc-heavy, modelled time at %llu ns SCM write "
                "latency (K cycles/s; cycle = pfree + pmalloc):\n",
                (unsigned long long)kHeapCellLatencyNs);
    std::printf("%8s  %12s %12s %8s  %14s %14s %10s\n", "threads",
                "global-lock", "per-thread", "gain", "contended-locks",
                "lock-wait-ms", "transfers");
    for (size_t i = 0; i < threads.size(); ++i) {
        std::printf("%7d%s  %12.1f %12.1f %7.2fx  %7.0f/%-7.0f %7.1f/%-7.1f %10.0f\n",
                    threads[i], unsigned(threads[i]) > hw ? "*" : " ",
                    base[i].ops_per_sec / 1e3, hoard[i].ops_per_sec / 1e3,
                    hoard[i].ops_per_sec / base[i].ops_per_sec,
                    base[i].lock_contended, hoard[i].lock_contended,
                    base[i].lock_wait_ms, hoard[i].lock_wait_ms,
                    hoard[i].transfers);
    }
    std::printf("(raw wall-clock, same cells, K cycles/s: ");
    for (size_t i = 0; i < threads.size(); ++i)
        std::printf("%dT %.0f/%.0f%s", threads[i],
                    base[i].wall_ops_per_sec / 1e3,
                    hoard[i].wall_ops_per_sec / 1e3,
                    i + 1 < threads.size() ? ", " : "");
    std::printf(")\n");

    const std::vector<TxnMode> modes = {
        TxnMode::kBaseline, TxnMode::kCombinerSync, TxnMode::kCombinerAsync};
    std::vector<std::vector<TxnCell>> txns(modes.size());
    for (size_t m = 0; m < modes.size(); ++m) {
        txns[m].resize(threads.size());
        for (size_t i = 0; i < threads.size(); ++i) {
            txns[m][i] = runTxnCell(threads[i], modes[m]);
            std::printf("  measured txn (%s) @ %dT...\n",
                        txnModeName(modes[m]), threads[i]);
        }
    }
    const auto &txn = txns[0]; // baseline, for the legacy shape check

    std::printf("\ntxn-heavy (K update txns/s, disjoint working sets; "
                "fences/txn exact from the emulator; commit latency in "
                "ns from the sampled HDR):\n");
    std::printf("%9s %8s  %12s %8s %11s  %10s %10s %10s\n", "mode",
                "threads", "txns/s", "vs 1T", "fences/txn", "commit-p50",
                "p95", "p99");
    for (size_t m = 0; m < modes.size(); ++m) {
        for (size_t i = 0; i < threads.size(); ++i) {
            const TxnCell &c = txns[m][i];
            std::printf("%9s %7d%s  %12.1f %7.2fx %11.3f",
                        txnModeName(modes[m]), threads[i],
                        unsigned(threads[i]) > hw ? "*" : " ",
                        c.ops_per_sec / 1e3,
                        c.ops_per_sec / txns[m][0].ops_per_sec,
                        c.fences_per_txn);
            if (c.samples)
                std::printf("  %10.0f %10.0f %10.0f\n", c.p50, c.p95,
                            c.p99);
            else
                std::printf("  %10s %10s %10s\n", "-", "-", "-");
        }
    }

    const TxnCell &gc_sync_8t = txns[1][threads.size() - 1];
    const TxnCell &gc_async_8t = txns[2][threads.size() - 1];
    std::printf("\nshape checks:\n");
    std::printf("  4T pmalloc, per-thread vs global lock: %.2fx "
                "(target >= 2.5x)\n",
                hoard[2].ops_per_sec / base[2].ops_per_sec);
    std::printf("  1T txn throughput: %.0f txns/s (PR3 recorded 2009320; "
                "must stay within 5%%)\n", txn[0].ops_per_sec);
    std::printf("  8T fences/txn: baseline %.3f, gc-sync %.3f, gc-async "
                "%.3f (combiner target < 1)\n",
                txn[threads.size() - 1].fences_per_txn,
                gc_sync_8t.fences_per_txn, gc_async_8t.fences_per_txn);

    std::vector<std::pair<std::string, double>> metrics;
    for (size_t i = 0; i < threads.size(); ++i) {
        const std::string t = std::to_string(threads[i]) + "t";
        metrics.emplace_back("pmalloc_global_lock_ops_" + t,
                             base[i].ops_per_sec);
        metrics.emplace_back("pmalloc_per_thread_ops_" + t,
                             hoard[i].ops_per_sec);
        metrics.emplace_back("pmalloc_global_lock_wall_ops_" + t,
                             base[i].wall_ops_per_sec);
        metrics.emplace_back("pmalloc_per_thread_wall_ops_" + t,
                             hoard[i].wall_ops_per_sec);
        for (size_t m = 0; m < modes.size(); ++m) {
            // Baseline keeps the legacy un-prefixed keys so the curves
            // in earlier BENCH_PR*.json stay comparable.
            const std::string pre =
                m == 0 ? std::string("txn")
                       : std::string("txn_") + txnModeName(modes[m]);
            const TxnCell &c = txns[m][i];
            metrics.emplace_back(pre + "_ops_" + t, c.ops_per_sec);
            metrics.emplace_back(pre + "_fences_per_txn_" + t,
                                 c.fences_per_txn);
            if (c.samples) {
                metrics.emplace_back(pre + "_commit_ns_p50_" + t, c.p50);
                metrics.emplace_back(pre + "_commit_ns_p95_" + t, c.p95);
                metrics.emplace_back(pre + "_commit_ns_p99_" + t, c.p99);
            }
        }
    }
    metrics.emplace_back("pmalloc_4t_speedup",
                         hoard[2].ops_per_sec / base[2].ops_per_sec);
    metrics.emplace_back("hw_threads", double(hw));
    bench::emitStatsJson("scaling", metrics);
    return 0;
}
