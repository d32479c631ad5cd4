/**
 * @file
 * Table 6: throughput of the tornbit RAWL vs. the baseline RAWL that
 * writes a commit record with a separate fence.
 *
 * Paper numbers (MB/s, base vs tornbit):
 *   8 B: 17/34   64 B: 128/227   256 B: 416/591   1024 B: 881/929
 *   2048 B: 1088/1045   4096 B: 1244/1093
 * — the torn bit wins up to ~2x below 2048 B (one fence instead of
 * two) and loses above (the bit-manipulation cost scales with data,
 * the extra fence does not).
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "log/commit_record_log.h"
#include "log/rawl.h"

namespace bench = mnemosyne::bench;
namespace mlog = mnemosyne::log;
namespace scm = mnemosyne::scm;

namespace {

template <typename Log>
double
throughputMBs(Log &log, size_t record_bytes, int iters)
{
    std::vector<uint64_t> record(record_bytes / 8, 0x5555aaaa5555aaaaULL);
    const size_t need = 2 * record.size() + 16;
    // Warm-up.
    log.append(record.data(), record.size());
    log.flush();
    log.truncateAll();

    bench::Timer t;
    for (int i = 0; i < iters; ++i) {
        // Consume lazily, like a log whose reader keeps up: truncation
        // cost is amortized identically for both log designs.
        if (log.freeWords() < need)
            log.truncateAll();
        log.append(record.data(), record.size());
        log.flush();
    }
    return double(record_bytes) * iters / t.s() / 1e6;
}

} // namespace

int
main()
{
    bench::header("Table 6: tornbit RAWL vs commit-record baseline");
    bench::paperNote("tornbit up to ~2x faster below 2048 B (one fence); "
                     "worse above (bit packing scales with data)");

    scm::ScmContext ctx(bench::paperScmConfig());
    scm::setCtx(&ctx);

    const std::vector<size_t> sizes = {8, 64, 256, 1024, 2048, 4096};
    std::printf("%12s  %12s  %12s  %10s\n", "record B", "base MB/s",
                "tornbit MB/s", "torn/base");

    double small_ratio = 0, big_ratio = 0;
    for (size_t bytes : sizes) {
        const int iters = bytes <= 256 ? 20000 : 5000;
        std::vector<uint64_t> base_arena((1 << 20) / 8, 0);
        std::vector<uint64_t> torn_arena((1 << 20) / 8, 0);
        auto base = mlog::CommitRecordLog::create(ctx, base_arena.data(),
                                                  1 << 20);
        auto torn = mlog::Rawl::create(ctx, torn_arena.data(), 1 << 20);

        const double base_mbs = throughputMBs(*base, bytes, iters);
        const double torn_mbs = throughputMBs(*torn, bytes, iters);
        std::printf("%12zu  %12.0f  %12.0f  %9.2fx\n", bytes, base_mbs,
                    torn_mbs, torn_mbs / base_mbs);
        if (bytes == 64)
            small_ratio = torn_mbs / base_mbs;
        if (bytes == 4096)
            big_ratio = torn_mbs / base_mbs;
    }

    std::printf("\nshape checks:\n");
    std::printf("  tornbit faster at 64 B:   %s (%.2fx, paper 1.77x)\n",
                small_ratio > 1.0 ? "yes" : "NO", small_ratio);
    std::printf("  advantage gone by 4096 B: %s (%.2fx, paper 0.88x)\n",
                big_ratio < small_ratio ? "yes" : "NO", big_ratio);

    // End-to-end check of the same claim through the MTM: with async
    // truncation off the critical path, a small durable transaction's
    // commit costs exactly one fence (the tornbit append's durability
    // point).  A two-fence log design would show 2.00 here.
    {
        bench::ScratchDir dir("table6_mtm");
        mnemosyne::Runtime rt(bench::paperRuntimeConfig(
            dir.path(), mnemosyne::mtm::Truncation::kAsync));
        uint64_t *cell = static_cast<uint64_t *>(
            rt.regions().pstaticVar("table6_cell", sizeof(uint64_t),
                                    nullptr));
        rt.txns().pauseTruncation();
        const int txns = 1000;
        const uint64_t fences0 = ctx.statsSnapshot().fences;
        for (int i = 0; i < txns; ++i) {
            rt.atomic([&](mnemosyne::mtm::Txn &tx) {
                tx.writeT<uint64_t>(cell, uint64_t(i));
            });
        }
        const uint64_t fences1 = ctx.statsSnapshot().fences;
        std::printf("  fences per durable txn:   %.2f (tornbit claim: "
                    "1.00)\n", double(fences1 - fences0) / txns);
        rt.txns().resumeTruncation();
        rt.txns().drainTruncation();

        bench::emitStatsJson("table6_rawl",
                             {{"torn_base_ratio_64B", small_ratio},
                              {"torn_base_ratio_4096B", big_ratio},
                              {"fences_per_txn",
                               double(fences1 - fences0) / txns}});
    }
    return 0;
}
