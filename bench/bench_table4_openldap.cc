/**
 * @file
 * Table 4, OpenLDAP: update throughput of the mini directory server
 * under a SLAMD-style add-entry workload with the three backends.
 *
 * Paper numbers (updates/s): back-bdb 5428, back-ldbm 6024,
 * back-mnemosyne 7350 — back-mnemosyne ~35% over back-bdb, and all
 * three close together because PCM is fast enough that persistence is
 * a small fraction of the request time.  The paper runs 16 threads
 * (4 per core on a quad-core); on this 1-CPU container the same thread
 * count only adds scheduling noise, so the bench uses 4 threads and
 * reports the relative ordering, which is the result under test.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "apps/ldap.h"
#include "apps/ldif_workload.h"
#include "bench/bench_util.h"
#include "pcmdisk/minifs.h"

namespace bench = mnemosyne::bench;
namespace apps = mnemosyne::apps;
namespace pcm = mnemosyne::pcmdisk;
namespace scm = mnemosyne::scm;
using mnemosyne::Runtime;

namespace {

/**
 * The frontend (BER decode, ACL checks, SLAMD round trip) dominates a
 * real slapd request; 150 us per request reproduces the paper's
 * absolute throughput regime (back-bdb ~5.4K updates/s), and makes the
 * backend cost the small fraction it is in Table 4.
 */
constexpr uint64_t kFrontendUs = 150;

double
runBackend(apps::Backend &backend, int threads, uint64_t per_thread)
{
    apps::DirectoryServer server(backend);
    server.setFrontendWorkUs(kFrontendUs);
    apps::LdifWorkload workload(1);
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (uint64_t i = 0; i < per_thread; ++i)
                server.addFromLdif(
                    workload.entryLdif(uint64_t(t) * per_thread + i));
        });
    }
    bench::Timer wall;
    go.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();
    return double(threads) * per_thread / wall.s();
}

} // namespace

int
main()
{
    bench::header("Table 4 (OpenLDAP): add-entry throughput per backend");
    bench::paperNote("back-bdb 5428, back-ldbm 6024, back-mnemosyne 7350 "
                     "updates/s; mnemosyne ~+35% over bdb, ldbm between");

    const int threads = 4;
    const uint64_t per_thread = 2000;

    double bdb_rate, ldbm_rate, mnemo_rate;
    {
        pcm::PcmDisk disk(bench::paperDiskConfig());
        pcm::MiniFs fs(disk);
        apps::BackBdb be(fs, "ldap_bdb");
        bdb_rate = runBackend(be, threads, per_thread);
    }
    {
        pcm::PcmDisk disk(bench::paperDiskConfig());
        pcm::MiniFs fs(disk);
        apps::BackLdbm be(fs, "ldap_ldbm");
        ldbm_rate = runBackend(be, threads, per_thread);
    }
    {
        bench::ScratchDir dir("ldap");
        scm::ScmContext ctx(bench::paperScmConfig());
        scm::setCtx(&ctx);
        Runtime rt(bench::paperRuntimeConfig(dir.path()));
        apps::AttrDescTable descs;
        apps::BackMnemosyne be(rt, descs);
        mnemo_rate = runBackend(be, threads, per_thread);
    }

    std::printf("%-16s %-28s %12s %10s\n", "Backend", "Persistence",
                "Updates/s", "vs bdb");
    std::printf("%-16s %-28s %12.0f %9.2fx\n", "back-bdb",
                "MiniBdb txn on PCM-disk", bdb_rate, 1.0);
    std::printf("%-16s %-28s %12.0f %9.2fx\n", "back-ldbm",
                "MiniBdb + periodic flush", ldbm_rate,
                ldbm_rate / bdb_rate);
    std::printf("%-16s %-28s %12.0f %9.2fx\n", "back-mnemosyne",
                "persistent AVL cache (txns)", mnemo_rate,
                mnemo_rate / bdb_rate);

    std::printf("\nshape checks:\n");
    const double hi = std::max({bdb_rate, ldbm_rate, mnemo_rate});
    const double lo = std::min({bdb_rate, ldbm_rate, mnemo_rate});
    std::printf("  all three backends close together (paper: within "
                "35%%): %s (spread %.0f%%)\n",
                hi / lo <= 1.4 ? "yes" : "NO", (hi / lo - 1) * 100);
    std::printf("  mnemosyne/bdb = %.2fx (paper: 1.35x; see "
                "EXPERIMENTS.md — our MiniBdb baseline lacks real "
                "Berkeley DB's API overheads)\n",
                mnemo_rate / bdb_rate);
    std::printf("  standard in-memory structure (AVL) keeps pace with a "
                "tuned storage engine: %s\n",
                mnemo_rate >= 0.9 * bdb_rate ? "yes" : "NO");
    bench::emitStatsJson("table4_openldap");
    return 0;
}
