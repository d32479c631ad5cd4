/**
 * @file
 * Table 4, Tokyo Cabinet: insert/delete throughput of TokyoMini with
 * msync-after-every-update on the PCM-disk vs. Mnemosyne durable
 * transactions, for 64 B and 1024 B values (single thread), plus the
 * multi-thread deltas the paper reports in passing.
 *
 * Paper numbers (updates/s): msync 19382 (64 B) / 2044 (1024 B);
 * Mnemosyne 42057 (64 B) / 30361 (1024 B) — 2-15x faster, and with
 * stronger guarantees (no torn pages).  Multi-threaded, Mnemosyne TC
 * degrades ~9% from tree contention while msync TC gains ~10%.
 */

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/tokyo_mini.h"
#include "bench/bench_util.h"
#include "pcmdisk/minifs.h"

namespace bench = mnemosyne::bench;
namespace apps = mnemosyne::apps;
namespace pcm = mnemosyne::pcmdisk;
namespace scm = mnemosyne::scm;
using mnemosyne::Runtime;

namespace {

double
runTc(apps::TokyoMini &tc, int threads, int per_thread, size_t vsize)
{
    const std::string value(vsize, 'v');
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < per_thread; ++i) {
                const std::string key =
                    "t" + std::to_string(t) + "k" + std::to_string(i);
                tc.put(key, value);
                if (i >= 8) {
                    tc.del("t" + std::to_string(t) + "k" +
                           std::to_string(i - 8));
                }
            }
        });
    }
    bench::Timer wall;
    go.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();
    return (2.0 * per_thread - 8) * threads / wall.s();
}

} // namespace

int
main()
{
    bench::header("Table 4 (Tokyo Cabinet): msync vs Mnemosyne "
                  "insert/delete throughput");
    bench::paperNote("msync 19382/2044 vs mnemosyne 42057/30361 updates/s "
                     "(64 B / 1024 B): 2-15x faster with stronger "
                     "consistency");

    const int ops = 1500;
    std::printf("%-22s %12s %12s\n", "Configuration", "64 B", "1024 B");

    double ms64, ms1k, mn64, mn1k;
    {
        pcm::PcmDisk disk(bench::paperDiskConfig());
        pcm::MiniFs fs(disk);
        apps::TokyoMini tc64(fs, "tc64");
        ms64 = runTc(tc64, 1, ops, 64);
        apps::TokyoMini tc1k(fs, "tc1k");
        ms1k = runTc(tc1k, 1, ops, 1024);
        std::printf("%-22s %12.0f %12.0f\n", "msync on PCM-disk", ms64,
                    ms1k);
    }
    {
        bench::ScratchDir dir("tc");
        scm::ScmContext ctx(bench::paperScmConfig());
        scm::setCtx(&ctx);
        Runtime rt(bench::paperRuntimeConfig(dir.path()));
        apps::TokyoMini tc64(rt, "tree64");
        mn64 = runTc(tc64, 1, ops, 64);
        apps::TokyoMini tc1k(rt, "tree1k");
        mn1k = runTc(tc1k, 1, ops, 1024);
        std::printf("%-22s %12.0f %12.0f\n", "Mnemosyne txns", mn64, mn1k);
    }

    std::printf("\nspeedup (paper: 2.2x at 64 B, 14.9x at 1024 B):\n");
    std::printf("  64 B:   %.1fx\n", mn64 / ms64);
    std::printf("  1024 B: %.1fx\n", mn1k / ms1k);

    // Multi-thread deltas (4 threads vs 1).
    double mn4, ms4;
    {
        bench::ScratchDir dir("tc4");
        scm::ScmContext ctx(bench::paperScmConfig());
        scm::setCtx(&ctx);
        Runtime rt(bench::paperRuntimeConfig(dir.path()));
        apps::TokyoMini tc(rt, "tree4t");
        mn4 = runTc(tc, 4, ops / 2, 64);
    }
    {
        pcm::PcmDisk disk(bench::paperDiskConfig());
        pcm::MiniFs fs(disk);
        apps::TokyoMini tc(fs, "tc4t");
        ms4 = runTc(tc, 4, ops / 2, 64);
    }
    std::printf("\n4-thread 64 B (paper: mnemosyne -9%% from tree "
                "contention, msync +10%%, still far below):\n");
    std::printf("  mnemosyne: %.0f updates/s (%+.0f%% vs 1T)\n", mn4,
                (mn4 / mn64 - 1) * 100);
    std::printf("  msync:     %.0f updates/s (%+.0f%% vs 1T)\n", ms4,
                (ms4 / ms64 - 1) * 100);
    std::printf("  msync still below mnemosyne: %s\n",
                ms4 < mn4 ? "yes" : "NO");
    bench::emitStatsJson("table4_tokyocabinet");
    return 0;
}
