/**
 * @file
 * Layer unit-cost probes, each timed through public calls and reported
 * as the median of five batches:
 *
 *   scm.fence_ns          ScmContext::fence() with nothing pending
 *   scm.flush_fence_ns    8-byte store + flush + fence of one line
 *   log.append_ns_8w      Rawl::append of 8 payload words (no flush)
 *   log.append_ns_64w     Rawl::append of 64 payload words (no flush)
 *   heap.pmalloc_pfree_ns PHeap pmalloc(64) + pfree pair
 *   mtm.update_txn_ns     2-read / 4-write Runtime::atomic transaction
 *
 * The scm probes run on the paper's emulated SCM (150 ns, 4 GB/s, TSC
 * spin).  The log, heap and mtm probes run with SCM latency off: their
 * device cost is what the scm probes price, and the attribution adds
 * the two, so it must not be counted twice.  mtm.update_txn_ns at
 * latency off is also the single-thread update-transaction figure the
 * roadmap tracks.
 */

#include <filesystem>
#include <memory>

#include "bench/bench_util.h"
#include "common.h"
#include "log/rawl.h"

namespace mnbench {

namespace {

using namespace mnemosyne;

/** Median over @p batches of the per-op time of @p n calls of @p op. */
template <typename Op>
double
perOpNs(int batches, uint64_t n, Op &&op)
{
    std::vector<double> v;
    for (int b = 0; b < batches; ++b) {
        const auto t0 = Clock::now();
        for (uint64_t i = 0; i < n; ++i)
            op(i);
        v.push_back(double(nsSince(t0, Clock::now())) / double(n));
    }
    return median(v);
}

/** Rawl::append of @p words payload words; truncation is untimed. */
double
appendNs(log::Rawl &rl, size_t words)
{
    std::vector<uint64_t> rec(words, 0x5555aaaa5555aaaaULL);
    std::vector<double> v;
    for (int b = 0; b < 5; ++b) {
        uint64_t n = 0, ns = 0;
        while (n < 20000) {
            rl.truncateAll();
            const auto t0 = Clock::now();
            uint64_t k = 0;
            while (rl.freeWords() > 2 * words + 16 && k < 256) {
                rl.append(rec.data(), rec.size());
                k++;
            }
            ns += nsSince(t0, Clock::now());
            n += k;
        }
        v.push_back(double(ns) / double(n));
    }
    return median(v);
}

} // namespace

int
runProbes(int argc, char **argv)
{
    const std::string dir = argOr(argc, argv, "--dir", "");
    if (dir.empty()) {
        std::fprintf(stderr, "mnbench probes: need --dir\n");
        return 2;
    }
    JsonObj out;

    {
        scm::ScmContext ctx(bench::paperScmConfig());
        std::vector<uint64_t> arena(4096 * 8);
        out.num("scm.fence_ns",
                perOpNs(5, 20000, [&](uint64_t) { ctx.fence(); }));
        out.num("scm.flush_fence_ns", perOpNs(5, 20000, [&](uint64_t i) {
                    uint64_t *w = &arena[(i % 4096) * 8];
                    ctx.storeT(w, i);
                    ctx.flush(w);
                    ctx.fence();
                }));
    }

    scm::ScmContext fast(bench::paperScmConfig(0, false));
    scm::setCtx(&fast);
    {
        std::vector<uint64_t> arena((1 << 20) / 8);
        auto rl = log::Rawl::create(arena.data(), arena.size() * 8);
        out.num("log.append_ns_8w", appendNs(*rl, 8));
        out.num("log.append_ns_64w", appendNs(*rl, 64));
    }
    {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        Runtime rt(bench::paperRuntimeConfig(dir, mtm::Truncation::kSync, 64));
        void **slot = static_cast<void **>(
            rt.regions().pstaticVar("mnbench_probe_slot", sizeof(void *),
                                    nullptr));
        out.num("heap.pmalloc_pfree_ns", perOpNs(5, 20000, [&](uint64_t) {
                    rt.pmalloc(64, slot);
                    rt.pfree(slot);
                }));

        auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
            "mnbench_probe_arr", 4096 * sizeof(uint64_t), nullptr));
        auto updateTxn = [&](uint64_t i) {
            rt.atomic([&](mtm::Txn &tx) {
                // 2 reads + 4 writes on distinct lines, walking the array.
                const uint64_t base = (i * 40) % 4064;
                uint64_t v = tx.readT<uint64_t>(&arr[base]);
                v += tx.readT<uint64_t>(&arr[base + 8]);
                for (int k = 0; k < 4; ++k)
                    tx.writeT<uint64_t>(&arr[base + 8 * k], v + uint64_t(k));
            });
        };
        for (uint64_t i = 0; i < 20000; ++i)
            updateTxn(i);
        out.num("mtm.update_txn_ns", perOpNs(5, 40000, updateTxn));
    }
    scm::setCtx(nullptr);
    std::filesystem::remove_all(dir);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

} // namespace mnbench
