/**
 * @file
 * Figure 6: write-latency change of the hashtable workload with
 * asynchronous log truncation relative to synchronous, when the
 * application thread is idle 90%, 50%, and 10% of the time.
 *
 * Paper shape: at 90% and 50% idle the truncation thread keeps up and
 * write latency drops 7-31%; at 10% idle the worker stalls behind the
 * truncation backlog and latency can RISE (up to +42% for 4 KB
 * values).
 */

#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "ds/phash_table.h"

namespace bench = mnemosyne::bench;
namespace ds = mnemosyne::ds;
namespace scm = mnemosyne::scm;
using mnemosyne::Runtime;
using mnemosyne::mtm::Truncation;

namespace {

/** Mean put latency (us) with a duty cycle set by idle_pct. */
double
latencyUs(Truncation trunc, size_t value_size, int idle_pct, int ops)
{
    bench::ScratchDir dir("fig6");
    scm::ScmContext ctx(bench::paperScmConfig());
    scm::setCtx(&ctx);
    Runtime rt(bench::paperRuntimeConfig(dir.path(), trunc));
    ds::PHashTable table(rt, "bench_table", 8192);

    const std::string value(value_size, 'x');
    uint64_t busy_ns_total = 0;
    uint64_t op_ns_mean = 1000; // initial idle-time estimate
    for (int i = 0; i < ops; ++i) {
        bench::Timer op;
        table.put("k" + std::to_string(i), value);
        if (i >= 8)
            table.del("k" + std::to_string(i - 8));
        const uint64_t busy = op.ns();
        busy_ns_total += busy;
        op_ns_mean = (op_ns_mean * 7 + busy) / 8;
        // Idle for idle_pct of the duty cycle: idle = busy * p/(1-p).
        if (idle_pct > 0) {
            const uint64_t idle =
                op_ns_mean * uint64_t(idle_pct) / uint64_t(100 - idle_pct);
            scm::DelayLoop::spin(idle);
        }
    }
    return double(busy_ns_total) / ops / 1e3;
}

} // namespace

int
main()
{
    bench::header("Figure 6: asynchronous vs synchronous log truncation "
                  "(latency change by idle duty cycle)");
    bench::paperNote("-7..-31% latency at 90%/50% idle; up to +42% at "
                     "10% idle (worker stalls behind truncation)");

    const std::vector<size_t> sizes = {8, 64, 256, 1024, 2048, 4096};
    const int ops = 600;

    std::printf("%8s  %10s | %22s\n", "", "sync us",
                "async latency change");
    std::printf("%8s  %10s | %6s %6s %6s\n", "size", "baseline",
                "90%idle", "50%", "10%");
    for (size_t size : sizes) {
        const double sync_us =
            latencyUs(Truncation::kSync, size, 50, ops);
        double async_delta[3];
        const int idles[3] = {90, 50, 10};
        for (int i = 0; i < 3; ++i) {
            const double async_us =
                latencyUs(Truncation::kAsync, size, idles[i], ops);
            async_delta[i] = (async_us / sync_us - 1.0) * 100.0;
        }
        std::printf("%8zu  %10.1f | %+5.0f%% %+5.0f%% %+5.0f%%\n", size,
                    sync_us, async_delta[0], async_delta[1],
                    async_delta[2]);
    }
    std::printf("\nshape check: async should reduce latency at high idle "
                "and help least (or hurt) at 10%% idle.\n");
    bench::emitStatsJson("fig6_async_trunc");
    return 0;
}
