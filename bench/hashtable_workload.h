/**
 * @file
 * The section 6.3 microbenchmark workload, shared by the Figure 4/5
 * benchmark and the Figure 7 sensitivity study: insert/delete a hash
 * table with values of a given size, "deletes introduced at the same
 * rate as writes to ensure steady progress", comparing Mnemosyne
 * durable transactions against the Berkeley-DB-style storage manager
 * on the PCM-disk.
 */

#ifndef MNEMOSYNE_BENCH_HASHTABLE_WORKLOAD_H_
#define MNEMOSYNE_BENCH_HASHTABLE_WORKLOAD_H_

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "ds/phash_table.h"
#include "pcmdisk/minifs.h"
#include "storage/minibdb.h"

namespace mnemosyne::bench {

struct CellResult {
    double write_latency_us = 0;  ///< Mean per-insert latency.
    double updates_per_sec = 0;   ///< Aggregate throughput (puts+dels).
};

/** Run one (threads, value_size) cell against the given put/del ops. */
template <typename PutFn, typename DelFn>
CellResult
runCell(int threads, size_t value_size, int ops_per_thread, PutFn put,
        DelFn del)
{
    const std::string value(value_size, 'x');
    std::atomic<uint64_t> total_put_ns{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;

    Timer wall;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            uint64_t my_put_ns = 0;
            for (int i = 0; i < ops_per_thread; ++i) {
                const std::string key =
                    "t" + std::to_string(t) + "k" + std::to_string(i);
                Timer op;
                put(key, value);
                my_put_ns += op.ns();
                // Delete at the same rate, trailing by a small window.
                if (i >= 8) {
                    const std::string old =
                        "t" + std::to_string(t) + "k" +
                        std::to_string(i - 8);
                    del(old);
                }
            }
            total_put_ns.fetch_add(my_put_ns, std::memory_order_relaxed);
        });
    }
    Timer run;
    go.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();
    const double secs = run.s();

    CellResult r;
    r.write_latency_us =
        double(total_put_ns.load()) / 1e3 / threads / ops_per_thread;
    const double total_ops =
        double(threads) * (2.0 * ops_per_thread - 8); // puts + dels
    r.updates_per_sec = total_ops / secs;
    return r;
}

/** Mnemosyne transactions on the persistent hash table. */
inline CellResult
runMtmCell(const std::string &scratch_tag, int threads, size_t value_size,
           int ops_per_thread, uint64_t write_latency_ns,
           mtm::Truncation trunc = mtm::Truncation::kSync)
{
    ScratchDir dir(scratch_tag);
    scm::ScmContext ctx(paperScmConfig(write_latency_ns));
    scm::setCtx(&ctx);
    Runtime rt(paperRuntimeConfig(dir.path(), trunc));
    ds::PHashTable table(rt, "bench_table", 16384);
    return runCell(
        threads, value_size, ops_per_thread,
        [&](const std::string &k, const std::string &v) { table.put(k, v); },
        [&](const std::string &k) { table.del(k); });
}

/** The Berkeley-DB-style baseline on the PCM-disk. */
inline CellResult
runBdbCell(int threads, size_t value_size, int ops_per_thread,
           uint64_t write_latency_ns)
{
    pcmdisk::PcmDisk disk(paperDiskConfig(write_latency_ns));
    pcmdisk::MiniFs fs(disk);
    storage::MiniBdbConfig cfg;
    cfg.nbuckets = 16384;
    storage::MiniBdb db(fs, "bench", cfg);
    return runCell(
        threads, value_size, ops_per_thread,
        [&](const std::string &k, const std::string &v) {
            const auto tx = db.begin();
            db.put(tx, k, v);
            db.commit(tx);
        },
        [&](const std::string &k) {
            const auto tx = db.begin();
            db.del(tx, k);
            db.commit(tx);
        });
}

} // namespace mnemosyne::bench

#endif // MNEMOSYNE_BENCH_HASHTABLE_WORKLOAD_H_
