/**
 * @file
 * Section 6.3.2, reincarnation cost:
 *
 *  (i)  OS boot: reconstruct persistent regions by scanning the
 *       persistent mapping table (paper: ~734 ms for 1 GB of SCM,
 *       i.e. <1 s added to boot);
 *  (ii) process start: remap the persistent regions (~1.1 ms), scavenge
 *       the persistent heap and rebuild its volatile indexes (~89 ms),
 *       and replay completed-but-not-flushed transactions (3-76 us
 *       per transaction; ~300 us worst case for 4 threads).
 */

#include <cstdio>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "crash/crash_harness.h"
#include "region/region_manager.h"
#include "region/region_table.h"

namespace bench = mnemosyne::bench;
namespace region = mnemosyne::region;
namespace scm = mnemosyne::scm;
using mnemosyne::Runtime;

namespace {

void
bootReconstruction()
{
    std::printf("(i) OS-boot region reconstruction (mapping-table scan):\n");
    std::printf("    %10s  %10s  %12s  %14s\n", "SCM MB", "frames",
                "scan ms", "ms per GB");
    for (size_t mb : {64, 256, 512}) {
        bench::ScratchDir dir("reinc_boot");
        scm::ScmContext ctx(bench::paperScmConfig(150, /*spin=*/false));
        region::RegionConfig cfg;
        cfg.backing_dir = dir.path();
        cfg.scm_capacity = mb << 20;
        cfg.va_reserve = size_t(4) << 30;
        region::RegionManager mgr(ctx, cfg);
        region::RegionLayer layer(mgr);
        // Fill most of the zone with mapped pages (worst case: a
        // persistent region entry for each SCM frame).
        layer.pmap(nullptr, (mb - 16) << 20);

        constexpr int kReps = 5;
        bench::Timer t;
        size_t frames = 0;
        for (int i = 0; i < kReps; ++i)
            frames = mgr.bootReconstruct();
        const double ms = t.ns() / 1e6 / kReps;
        std::printf("    %10zu  %10zu  %12.1f  %14.0f\n", mb, frames, ms,
                    ms * 1024 / mb);
    }
    std::printf("    paper: ~734 ms/GB (includes kernel page-descriptor "
                "setup; <1 s of boot)\n\n");
}

void
processStart()
{
    std::printf("(ii) process reincarnation:\n");
    bench::ScratchDir dir("reinc_proc");
    {
        scm::ScmContext ctx(bench::paperScmConfig(150, false));
        scm::setCtx(&ctx);
        Runtime rt(bench::paperRuntimeConfig(dir.path()));
        // Populate the heap: ~100K live allocations across size classes.
        auto **roots = static_cast<void **>(rt.regions().pstaticVar(
            "bench_roots", 128 * sizeof(void *), nullptr));
        std::mt19937_64 rng(7);
        for (int i = 0; i < 100000; ++i) {
            const size_t slot = rng() % 128;
            if (roots[slot])
                rt.pfree(&roots[slot]);
            rt.pmalloc(16 << (rng() % 8), &roots[slot]);
        }
    }
    scm::ScmContext ctx(bench::paperScmConfig(150, false));
    scm::setCtx(&ctx);
    Runtime rt(bench::paperRuntimeConfig(dir.path()));
    const auto r = rt.reincarnation();
    std::printf("    remap persistent regions: %8.2f ms  (paper ~1.1 ms)\n",
                r.region_remap.count() / 1e6);
    std::printf("    heap scavenge + indexes:  %8.2f ms  (paper ~89 ms)\n",
                r.heap_scavenge.count() / 1e6);
}

void
txnReplay()
{
    std::printf("\n(iii) replay of completed but not flushed "
                "transactions:\n");
    bench::ScratchDir dir("reinc_replay");
    const int kTxns = 256;
    {
        scm::ScmConfig sc; // failure tracking ON for the crash
        scm::ScmContext ctx(sc);
        scm::setCtx(&ctx);
        auto cfg = bench::paperRuntimeConfig(
            dir.path(), mnemosyne::mtm::Truncation::kAsync);
        Runtime rt(cfg);
        rt.txns().pauseTruncation();
        auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
            "replay_arr", 4096 * sizeof(uint64_t), nullptr));
        std::mt19937_64 rng(3);
        for (int i = 0; i < kTxns; ++i) {
            rt.atomic([&](mnemosyne::mtm::Txn &tx) {
                for (int w = 0; w < 8; ++w)
                    tx.writeT<uint64_t>(&arr[rng() % 4096], rng());
            });
        }
        ctx.crash(true);
    }
    scm::ScmContext ctx(bench::paperScmConfig(150, false));
    scm::setCtx(&ctx);
    bench::Timer t;
    Runtime rt(bench::paperRuntimeConfig(dir.path()));
    const auto r = rt.reincarnation();
    std::printf("    replayed %zu txns in %.0f us -> %.1f us per txn "
                "(paper: 3-76 us)\n",
                r.replayed_txns, r.txn_replay.count() / 1e3,
                r.replayed_txns
                    ? double(r.txn_replay.count()) / 1e3 / r.replayed_txns
                    : 0.0);
}

} // namespace

int
main()
{
    bench::header("Section 6.3.2: reincarnation costs");
    bench::paperNote("region reconstruction ~734 ms/GB; remap ~1.1 ms; "
                     "heap scavenge ~89 ms; replay 3-76 us/txn");
    bootReconstruction();
    processStart();
    txnReplay();
    bench::emitStatsJson("reincarnation");
    return 0;
}
