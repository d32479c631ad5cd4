/**
 * @file
 * mn_kvd: the networked durable KV daemon (DESIGN.md §10).
 *
 * Binds the KvServer to 127.0.0.1, serves until SIGINT/SIGTERM (or
 * --seconds), then stops gracefully: the event loops flush what they
 * answered, then sync() and drain the truncator — a clean stop leaves
 * zero unreplayed log, which the smoke test asserts by restarting and
 * checking "replayed 0".
 *
 * Durability is real across SIGKILL: regions are file-backed MAP_SHARED
 * mappings, so acknowledged (fenced) writes survive process death and
 * the next start replays the redo log into a consistent state.
 *
 *   mn_kvd --dir /tmp/kv --port 0 --workers 4
 *
 * Prints exactly one line per lifecycle event so scripts can scrape:
 *   mn_kvd: recovered (replayed N txns)
 *   mn_kvd: listening on 127.0.0.1:PORT (pid P)
 *   mn_kvd: clean shutdown (N requests served)
 */

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "runtime/runtime.h"
#include "scm/scm.h"
#include "server/kv_server.h"

using namespace mnemosyne;

namespace {

volatile std::sig_atomic_t gStop = 0;

void
onSignal(int)
{
    gStop = 1;
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: mn_kvd [options]\n"
        "  --dir D             region backing dir (default /tmp/mn_kvd)\n"
        "  --port P            TCP port, 0 = ephemeral (default 0)\n"
        "  --port-file F       write the bound port to F\n"
        "  --io N              ignored (accepted for old scripts)\n"
        "  --workers M         event loops, each running its connections'\n"
        "                      requests to completion (default 8)\n"
        "  --buckets N         hash-table buckets (default 65536)\n"
        "  --heap-mb M         persistent heap size (default 256)\n"
        "  --seconds S         exit after S seconds (default: run until "
        "signal)\n"
        "  --no-group-commit   disable the fence-epoch combiner\n"
        "  --scm-latency-ns N  model SCM write latency (default 0 = off)\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir = "/tmp/mn_kvd";
    std::string port_file;
    uint16_t port = 0;
    int workers = 8;
    size_t nbuckets = 1 << 16;
    size_t heap_mb = 256;
    int seconds = 0;
    bool group_commit = true;
    uint64_t scm_latency_ns = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--dir")
            dir = next();
        else if (a == "--port")
            port = uint16_t(std::atoi(next()));
        else if (a == "--port-file")
            port_file = next();
        else if (a == "--io")
            (void)next();
        else if (a == "--workers")
            workers = std::atoi(next());
        else if (a == "--buckets")
            nbuckets = size_t(std::atoll(next()));
        else if (a == "--heap-mb")
            heap_mb = size_t(std::atoll(next()));
        else if (a == "--seconds")
            seconds = std::atoi(next());
        else if (a == "--no-group-commit")
            group_commit = false;
        else if (a == "--scm-latency-ns")
            scm_latency_ns = uint64_t(std::atoll(next()));
        else
            usage();
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    // A service process: no failure journal (crashes are real process
    // deaths — the file-backed regions ARE the persistent state), no
    // modelled latency unless asked for.
    scm::ScmConfig scfg;
    scfg.latency_mode =
        scm_latency_ns ? scm::LatencyMode::kSpin : scm::LatencyMode::kNone;
    scfg.write_latency_ns = scm_latency_ns;
    scfg.failure_tracking = false;
    static scm::ScmContext sctx(scfg);
    scm::setCtx(&sctx); // STAT's "scm.*" keys report the published context

    std::filesystem::create_directories(dir);

    RuntimeConfig cfg;
    cfg.scm_context = &sctx;
    cfg.region.backing_dir = dir;
    cfg.region.scm_capacity = size_t(heap_mb + 320) << 20;
    cfg.region.va_reserve = size_t(4) << 30;
    cfg.small_heap_bytes = heap_mb << 20;
    cfg.big_heap_bytes = size_t(64) << 20;
    cfg.txn.truncation = mtm::Truncation::kAsync;
    cfg.txn.group_commit = group_commit;
    // One live log slot per thread that might run transactions.
    cfg.txn.log_slots = size_t(workers + 8);
    cfg.txn.log_slot_bytes = 4 << 20;

    Runtime rt(cfg);
    std::printf("mn_kvd: recovered (replayed %llu txns)\n",
                (unsigned long long)rt.reincarnation().replayed_txns);
    std::fflush(stdout);

    server::KvServerConfig scv;
    scv.port = port;
    scv.workers = workers;
    scv.nbuckets = nbuckets;
    server::KvServer srv(rt, scv);
    if (!srv.start()) {
        std::fprintf(stderr, "mn_kvd: failed to bind 127.0.0.1:%u\n",
                     unsigned(port));
        return 1;
    }
    std::printf("mn_kvd: listening on 127.0.0.1:%u (pid %d)\n",
                unsigned(srv.port()), int(getpid()));
    std::fflush(stdout);
    if (!port_file.empty()) {
        if (FILE *f = std::fopen(port_file.c_str(), "w")) {
            std::fprintf(f, "%u\n", unsigned(srv.port()));
            std::fclose(f);
        }
    }

    const auto t0 = std::chrono::steady_clock::now();
    while (!gStop) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (seconds > 0 &&
            std::chrono::steady_clock::now() - t0 >=
                std::chrono::seconds(seconds))
            break;
    }

    srv.stop();
    std::printf("mn_kvd: clean shutdown (%llu requests served)\n",
                (unsigned long long)srv.requestsServed());
    std::fflush(stdout);
    return 0;
}
