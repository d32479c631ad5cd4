/**
 * @file
 * mn_stat — pull live stats from a running mnemosyne process.
 *
 * The runtime's stats emitter (started by MNEMOSYNE_STATS_PORT=<port>,
 * 0 = pick an ephemeral port and print it) serves a line protocol on
 * 127.0.0.1: send one command, get one line of JSON back.  This tool is
 * the client side: deliberately standalone (plain POSIX sockets, no
 * library dependency), so it talks to any mnemosyne process.
 *
 *   mn_stat --port 7777                 # pretty-printed stats snapshot
 *   mn_stat --port 7777 --json          # raw JSON (for scripts / jq)
 *   mn_stat --port 7777 --diff 2        # two snapshots 2 s apart, rates
 *   mn_stat --port 7777 flight 16       # last 16 flight-recorder txns
 *   mn_stat --port 7777 slow            # slowest-transaction trap
 *   mn_stat --port 7777 phases          # completed obs::Phase intervals
 *   mn_stat --port 7777 ping            # liveness + pid
 *
 * Exit status: 0 on success, 1 on connection/protocol failure.
 */

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace {

int
dial(const std::string &host, int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        std::perror("mn_stat: socket");
        return -1;
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(uint16_t(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        // Fall back to a name lookup for e.g. "localhost".
        hostent *he = ::gethostbyname(host.c_str());
        if (!he || he->h_addrtype != AF_INET) {
            std::fprintf(stderr, "mn_stat: cannot resolve %s\n",
                         host.c_str());
            ::close(fd);
            return -1;
        }
        std::memcpy(&addr.sin_addr, he->h_addr_list[0],
                    sizeof(addr.sin_addr));
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        std::fprintf(stderr, "mn_stat: cannot connect to %s:%d: %s\n",
                     host.c_str(), port, std::strerror(errno));
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Send one command line, read one line of JSON back. */
bool
request(int fd, const std::string &cmd, std::string &reply)
{
    const std::string line = cmd + "\n";
    size_t off = 0;
    while (off < line.size()) {
        const ssize_t w = ::send(fd, line.data() + off, line.size() - off, 0);
        if (w <= 0)
            return false;
        off += size_t(w);
    }
    reply.clear();
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return false;
        reply.append(chunk, size_t(n));
        const size_t nl = reply.find('\n');
        if (nl != std::string::npos) {
            reply.resize(nl);
            return true;
        }
    }
}

/**
 * Parse a FLAT JSON object of string->number pairs — the shape of a
 * StatsRegistry snapshot.  Non-numeric values are skipped.  This is not
 * a general JSON parser and does not need to be.
 */
std::map<std::string, double>
parseFlat(const std::string &json)
{
    std::map<std::string, double> out;
    size_t p = 0;
    while ((p = json.find('"', p)) != std::string::npos) {
        const size_t q = json.find('"', p + 1);
        if (q == std::string::npos)
            break;
        const std::string key = json.substr(p + 1, q - p - 1);
        size_t v = q + 1;
        while (v < json.size() && std::isspace(unsigned(json[v])))
            ++v;
        if (v >= json.size() || json[v] != ':') {
            p = q + 1;
            continue;
        }
        ++v;
        while (v < json.size() && std::isspace(unsigned(json[v])))
            ++v;
        char *end = nullptr;
        const double num = std::strtod(json.c_str() + v, &end);
        if (end && end != json.c_str() + v)
            out[key] = num;
        p = q + 1;
    }
    return out;
}

void
printPretty(const std::map<std::string, double> &stats)
{
    for (const auto &[key, value] : stats) {
        if (value == std::floor(value) && std::fabs(value) < 1e15)
            std::printf("%-44s %20.0f\n", key.c_str(), value);
        else
            std::printf("%-44s %20.6g\n", key.c_str(), value);
    }
}

void
printDiff(const std::map<std::string, double> &a,
          const std::map<std::string, double> &b, double seconds)
{
    std::printf("%-44s %16s %14s\n", "key", "delta", "per-sec");
    for (const auto &[key, after] : b) {
        const auto it = a.find(key);
        const double before = it == a.end() ? 0.0 : it->second;
        const double d = after - before;
        if (d == 0)
            continue;
        std::printf("%-44s %16.6g %14.6g\n", key.c_str(), d,
                    seconds > 0 ? d / seconds : 0.0);
    }
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--host H] --port P [--json] [--diff SECONDS] [cmd...]\n"
        "  cmd: stats (default) | flight [N] | slow | phases | ping | reset\n",
        argv0);
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    int port = -1;
    bool raw_json = false;
    double diff_seconds = 0;
    std::vector<std::string> cmd_words;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--host" && i + 1 < argc) {
            host = argv[++i];
        } else if (arg == "--port" && i + 1 < argc) {
            port = std::atoi(argv[++i]);
        } else if (arg == "--json") {
            raw_json = true;
        } else if (arg == "--diff" && i + 1 < argc) {
            diff_seconds = std::atof(argv[++i]);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            cmd_words.push_back(arg);
        }
    }
    if (port < 0 || port > 65535)
        return usage(argv[0]);

    std::string cmd = "stats";
    if (!cmd_words.empty()) {
        cmd = cmd_words[0];
        for (size_t i = 1; i < cmd_words.size(); ++i)
            cmd += " " + cmd_words[i];
    }

    const int fd = dial(host, port);
    if (fd < 0)
        return 1;

    int rc = 0;
    std::string reply;
    if (diff_seconds > 0) {
        // Two snapshots, diffed: interval activity of a live process.
        std::string second;
        if (!request(fd, cmd, reply)) {
            std::fprintf(stderr, "mn_stat: request failed\n");
            rc = 1;
        } else {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                diff_seconds));
            if (!request(fd, cmd, second)) {
                std::fprintf(stderr, "mn_stat: second request failed\n");
                rc = 1;
            } else if (raw_json) {
                std::printf("{\"before\":%s,\"after\":%s,\"seconds\":%g}\n",
                            reply.c_str(), second.c_str(), diff_seconds);
            } else {
                printDiff(parseFlat(reply), parseFlat(second), diff_seconds);
            }
        }
    } else if (!request(fd, cmd, reply)) {
        std::fprintf(stderr, "mn_stat: request failed\n");
        rc = 1;
    } else if (raw_json || cmd != "stats") {
        // Nested responses (flight/slow/phases) always print raw.
        std::printf("%s\n", reply.c_str());
    } else {
        printPretty(parseFlat(reply));
    }

    ::close(fd);
    return rc;
}
