/**
 * @file
 * Table 5: updating a red-black tree with 128-byte nodes in persistent
 * memory (Mnemosyne transactions) vs. keeping it in DRAM and
 * periodically serializing it to a file on the PCM-disk (the
 * Boost-style fast-save).
 *
 * Paper numbers: insert 4.7-5.8 us across tree sizes; serialization
 * 517 us (1K nodes) to 143,776 us (256K nodes); 189 to 24,788 inserts
 * per serialization — "on average 10 percent of the tree can be
 * updated for the cost of serializing and storing the tree just once."
 */

#include <cstdio>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "ds/prb_tree.h"
#include "ds/vrb_tree.h"
#include "pcmdisk/minifs.h"

namespace bench = mnemosyne::bench;
namespace ds = mnemosyne::ds;
namespace pcm = mnemosyne::pcmdisk;
namespace scm = mnemosyne::scm;
using mnemosyne::Runtime;

int
main()
{
    bench::header("Table 5: red-black tree updates vs Boost-style "
                  "serialization");
    bench::paperNote("insert 4.7-5.8 us; serialize 517 us - 143.8 ms; "
                     "189 - 24788 inserts per serialization");

    const std::vector<size_t> tree_sizes = {1024, 8192, 65536, 262144};
    std::printf("%10s  %12s  %14s  %16s\n", "tree size", "insert us",
                "serialize us", "inserts/serial.");

    bench::ScratchDir dir("table5");
    scm::ScmContext ctx(bench::paperScmConfig());
    scm::setCtx(&ctx);
    Runtime rt(bench::paperRuntimeConfig(dir.path(),mnemosyne::mtm::
                                             Truncation::kSync,
                                         /*heap_mb=*/512));
    ds::PRbTree ptree(rt, "table5_rb");
    ds::VRbTree vtree;
    pcm::PcmDisk disk(bench::paperDiskConfig());
    pcm::MiniFs fs(disk);

    uint8_t payload[ds::PRbTree::kPayloadBytes];
    std::memset(payload, 0x5a, sizeof(payload));
    std::mt19937_64 rng(1);

    size_t grown = 0;
    for (size_t target : tree_sizes) {
        // Grow both trees to the target size with identical keys.
        while (grown < target) {
            const uint64_t key = (uint64_t(grown) << 20) | (rng() & 0xfffff);
            ptree.put(key, payload, sizeof(payload));
            vtree.put(key, payload, sizeof(payload));
            ++grown;
        }

        // Mnemosyne: mean latency of transactional updates at this size
        // (updates of random existing keys keep the size stable, like
        // the steady-state tree the paper measures).
        const int kProbe = 400;
        std::vector<uint64_t> keys;
        keys.reserve(kProbe);
        ptree.forEachKey([&](uint64_t k) {
            if (keys.size() < kProbe && (rng() & 7) == 0)
                keys.push_back(k);
        });
        while (keys.size() < kProbe)
            keys.push_back(keys[rng() % keys.size()]);
        bench::Timer ti;
        for (int i = 0; i < kProbe; ++i) {
            payload[0] = uint8_t(i);
            ptree.put(keys[size_t(i)], payload, sizeof(payload));
        }
        const double insert_us = ti.us() / kProbe;

        // Baseline: serialize the whole volatile tree and store it.
        bench::Timer ts;
        vtree.saveToFile(fs, "tree_snapshot.bin");
        const double serialize_us = ts.us();

        std::printf("%10zu  %12.1f  %14.0f  %16.0f\n", target, insert_us,
                    serialize_us, serialize_us / insert_us);
    }

    std::printf("\nshape check: inserts-per-serialization must grow "
                "superlinearly with tree size (paper: 189 -> 24788).\n");
    bench::emitStatsJson("table5_serialization");
    return 0;
}
