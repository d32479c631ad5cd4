/**
 * @file
 * mnbench: the workload program run.py calls.  Each subcommand prints
 * one JSON object as its last line of output.
 *
 *   mnbench ht --dir D --seed S --seconds T [--setups N] [--trace-file F]
 *   mnbench kv-preload --port P --keys N [--value B]
 *   mnbench kv-load --port P --keys N --conns C --depth D [--zipf THETA]
 *                   --seed S --seconds T --acks F [--emitter-port E]
 *                   [--trace-file F]
 *   mnbench kv-verify --port P --keys N --acks F
 *   mnbench probes --dir D
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>

namespace mnbench {
int runHtInproc(int argc, char **argv);
int runKvPreload(int argc, char **argv);
int runKvLoad(int argc, char **argv);
int runKvVerify(int argc, char **argv);
int runProbes(int argc, char **argv);
} // namespace mnbench

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: mnbench ht|kv-preload|kv-load|kv-verify|probes "
                     "[options]\n");
        return 2;
    }
    const char *cmd = argv[1];
    try {
        if (std::strcmp(cmd, "ht") == 0)
            return mnbench::runHtInproc(argc, argv);
        if (std::strcmp(cmd, "kv-preload") == 0)
            return mnbench::runKvPreload(argc, argv);
        if (std::strcmp(cmd, "kv-load") == 0)
            return mnbench::runKvLoad(argc, argv);
        if (std::strcmp(cmd, "kv-verify") == 0)
            return mnbench::runKvVerify(argc, argv);
        if (std::strcmp(cmd, "probes") == 0)
            return mnbench::runProbes(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mnbench %s: %s\n", cmd, e.what());
        return 2;
    }
    std::fprintf(stderr, "mnbench: unknown command %s\n", cmd);
    return 2;
}
