/**
 * @file
 * Quickstart: the Mnemosyne programming model in one file.
 *
 *  - declare a global persistent variable (the pstatic keyword),
 *  - create a persistent linked list with pmalloc,
 *  - update it with durable memory transactions (atomic blocks),
 *  - restart and find everything still there,
 *  - read the observability snapshot: what the run cost in fences,
 *    flushes, log appends, and transactions.
 *
 * Run it twice (state lives in ./mnemosyne_quickstart by default, or
 * set MNEMOSYNE_REGION_PATH):
 *
 *   $ ./quickstart      # run 1: creates the list
 *   $ ./quickstart      # run 2: extends it — the data persisted
 *
 * The example also simulates a restart in-process so a single run
 * demonstrates persistence end to end.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "mtm/txn_manager.h"
#include "obs/obs.h"
#include "obs/stats_registry.h"
#include "runtime/runtime.h"

namespace mn = mnemosyne;
namespace obs = mnemosyne::obs;

namespace {

/** A persistent singly-linked list of 64-bit values. */
struct ListNode {
    ListNode *next;
    uint64_t value;
};

struct ListHead {
    ListNode *first;
    uint64_t length;
};

mn::RuntimeConfig
config(const std::string &dir)
{
    std::filesystem::create_directories(dir);
    mn::RuntimeConfig cfg;
    cfg.region.backing_dir = dir;
    cfg.region.scm_capacity = size_t(64) << 20;
    cfg.region.va_reserve = size_t(2) << 30;
    cfg.small_heap_bytes = 8 << 20;
    cfg.big_heap_bytes = 8 << 20;
    return cfg;
}

void
pushFront(mn::Runtime &rt, ListHead *head, uint64_t value)
{
    // Crash-safe allocation: the node is staged, initialized while
    // still private, and the linking transaction clears the staging
    // slot — a crash anywhere leaks nothing.
    rt.resetStaging();
    auto *node = static_cast<ListNode *>(rt.stageAlloc(sizeof(ListNode)));
    rt.scm().wtstoreT(&node->value, value);

    rt.atomic([&](mn::mtm::Txn &tx) {
        tx.writeT<ListNode *>(&node->next, tx.readT<ListNode *>(&head->first));
        tx.writeT<ListNode *>(&head->first, node);
        tx.writeT<uint64_t>(&head->length, tx.readT<uint64_t>(&head->length) + 1);
        rt.clearAllocStaging(tx);
    });
}

void
oneSession(const std::string &dir, bool linger = false)
{
    mn::Runtime rt(config(dir));

    // pstatic: initialized once, ever; then persists across runs.
    auto *boot_count = static_cast<uint64_t *>(
        rt.regions().pstaticVar("boot_count", sizeof(uint64_t), nullptr));
    auto *head = static_cast<ListHead *>(
        rt.regions().pstaticVar("list_head", sizeof(ListHead), nullptr));

    rt.atomic([&](mn::mtm::Txn &tx) {
        tx.writeT<uint64_t>(boot_count, tx.readT<uint64_t>(boot_count) + 1);
    });
    std::printf("session #%llu of this quickstart's persistent state\n",
                (unsigned long long)*boot_count);

    pushFront(rt, head, *boot_count * 100);
    pushFront(rt, head, *boot_count * 100 + 1);

    std::printf("list now has %llu nodes:",
                (unsigned long long)head->length);
    for (ListNode *n = head->first; n != nullptr; n = n->next)
        std::printf(" %llu", (unsigned long long)n->value);
    std::printf("\n");

    const auto reinc = rt.reincarnation();
    std::printf("reincarnation: %lld us region scan, %lld us remap, "
                "%lld us heap scavenge, %zu txns replayed\n\n",
                (long long)(reinc.region_reconstruct.count() / 1000),
                (long long)(reinc.region_remap.count() / 1000),
                (long long)(reinc.heap_scavenge.count() / 1000),
                reinc.replayed_txns);

    // While the runtime is alive every layer is registered with the
    // stats registry; the snapshot shows what this session cost in
    // fences, flushes, log appends, and transactions.
    if (obs::enabled()) {
        std::printf("observability snapshot of this session:\n%s\n",
                    obs::StatsRegistry::instance().textSnapshot().c_str());
    }

    // Hold the runtime open so live clients (mn_stat against
    // MNEMOSYNE_STATS_PORT, or a SIGUSR2 dump) can pull a snapshot
    // while every layer is still registered.  CI's obs-schema job
    // relies on this.
    if (linger) {
        if (const char *v = std::getenv("MNEMOSYNE_QUICKSTART_LINGER_MS")) {
            const long ms = std::strtol(v, nullptr, 10);
            if (ms > 0) {
                std::printf("lingering %ld ms for live stats clients...\n",
                            ms);
                std::fflush(stdout);
                std::this_thread::sleep_for(std::chrono::milliseconds(ms));
            }
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string dir =
        argc > 1 ? argv[1] : "./mnemosyne_quickstart";
    std::printf("=== Mnemosyne quickstart (state in %s) ===\n\n",
                dir.c_str());
    // Two sessions in a row: the second finds the first's data — the
    // same thing happens if you run the binary again.
    // Turn stats collection on for the second session (MNEMOSYNE_STATS=1
    // would enable it from the start) and print the snapshot at exit:
    // every layer's counters in one place.
    oneSession(dir);
    obs::setEnabled(true);
    oneSession(dir, /*linger=*/true);
    std::printf("run the binary again: the list keeps growing.\n");
    return 0;
}
