#include "obs/emitter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "obs/flight_recorder.h"
#include "obs/phase.h"
#include "obs/stats_registry.h"

namespace mnemosyne::obs {

namespace {

/** Longest command line a client may send without a newline; the
 *  longest real command ("flight N") is under 32 bytes. */
constexpr size_t kMaxLineBytes = 4096;

std::atomic<bool> gSigusr2{false};

extern "C" void
sigusr2Handler(int)
{
    // Async-signal-safe: just raise the flag; the emitter thread polls.
    gSigusr2.store(true, std::memory_order_release);
}

void
installSigusr2()
{
    static std::once_flag once;
    std::call_once(once, [] {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = sigusr2Handler;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_RESTART;
        sigaction(SIGUSR2, &sa, nullptr);
    });
}

} // namespace

StatsEmitter &
StatsEmitter::instance()
{
    // Immortal: the emitter thread may outlive static destructors of
    // other translation units; stop() is hooked via atexit instead.
    static StatsEmitter *e = new StatsEmitter();
    return *e;
}

bool
StatsEmitter::start(int port)
{
    std::lock_guard<std::mutex> g(startMu_);
    if (running())
        return true;

    listenFd_ = -1;
    if (port >= 0) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return false;
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(uint16_t(port));
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
                0 ||
            ::listen(fd, 4) != 0) {
            std::fprintf(stderr,
                         "mnemosyne: stats emitter cannot bind port %d: %s\n",
                         port, std::strerror(errno));
            ::close(fd);
            return false;
        }
        socklen_t len = sizeof(addr);
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
        port_.store(ntohs(addr.sin_port), std::memory_order_release);
        listenFd_ = fd;
    }

    installSigusr2();
    stop_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] { run(); });
    std::atexit([] { StatsEmitter::instance().stop(); });
    return true;
}

void
StatsEmitter::stop()
{
    std::lock_guard<std::mutex> g(startMu_);
    if (!running())
        return;
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable())
        thread_.join();
    running_.store(false, std::memory_order_release);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    port_.store(0, std::memory_order_release);
}

void
StatsEmitter::run()
{
    while (!stop_.load(std::memory_order_acquire)) {
        if (gSigusr2.exchange(false, std::memory_order_acq_rel) ||
            dumpRequested_.exchange(false, std::memory_order_acq_rel))
            writeDump();

        if (listenFd_ < 0) {
            // Dump-only mode: poll the flags at ~5 Hz.
            struct timespec ts = {0, 200 * 1000 * 1000};
            nanosleep(&ts, nullptr);
            continue;
        }

        pollfd pfd = {listenFd_, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, 200);
        if (rc <= 0)
            continue;
        const int client = ::accept(listenFd_, nullptr, nullptr);
        if (client < 0)
            continue;
        serveClient(client);
        ::close(client);
    }
}

void
StatsEmitter::serveClient(int fd)
{
    std::string buf;
    char chunk[4096];
    while (!stop_.load(std::memory_order_acquire)) {
        pollfd pfd = {fd, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, 200);
        if (rc < 0)
            return;
        if (rc == 0) {
            // Stay responsive to dump requests while a client idles.
            if (gSigusr2.exchange(false, std::memory_order_acq_rel) ||
                dumpRequested_.exchange(false, std::memory_order_acq_rel))
                writeDump();
            continue;
        }
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return;
        buf.append(chunk, size_t(n));

        size_t nl;
        while ((nl = buf.find('\n')) != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            bool close = false;
            std::string reply = respond(line, close);
            reply += '\n';
            size_t off = 0;
            while (off < reply.size()) {
                const ssize_t w = ::send(fd, reply.data() + off,
                                         reply.size() - off, MSG_NOSIGNAL);
                if (w <= 0)
                    return;
                off += size_t(w);
            }
            if (close)
                return;
        }
        // A client that never sends a newline must not grow buf without
        // bound: drop it once the partial line passes the cap.
        if (buf.size() > kMaxLineBytes)
            return;
    }
}

std::string
StatsEmitter::respond(const std::string &line, bool &close)
{
    if (line == "ping") {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "{\"ok\":true,\"pid\":%d}",
                      int(::getpid()));
        return buf;
    }
    if (line == "stats")
        return StatsRegistry::instance().jsonSnapshot();
    if (line == "flight" || line.rfind("flight ", 0) == 0) {
        size_t cap = 0;
        if (line.size() > 7)
            cap = size_t(std::strtoul(line.c_str() + 7, nullptr, 10));
        return FlightRecorder::instance().json(cap);
    }
    if (line == "slow")
        return FlightRecorder::recordsJson(
            FlightRecorder::instance().slowest());
    if (line == "phases")
        return PhaseLog::instance().json();
    if (line == "reset") {
        StatsRegistry::instance().resetAll();
        return "{\"ok\":true}";
    }
    if (line == "quit" || line == "exit") {
        close = true;
        return "{\"ok\":true}";
    }
    return "{\"error\":\"unknown command: " + line + "\"}";
}

void
StatsEmitter::writeDump()
{
    std::string out = "{\"stats\":";
    out += StatsRegistry::instance().jsonSnapshot();
    out += ",\"flight\":";
    out += FlightRecorder::instance().json();
    out += ",\"phases\":";
    out += PhaseLog::instance().json();
    out += "}";

    if (const char *path = std::getenv("MNEMOSYNE_DUMP_FILE")) {
        if (std::FILE *f = std::fopen(path, "a")) {
            std::fprintf(f, "%s\n", out.c_str());
            std::fclose(f);
            return;
        }
        std::fprintf(stderr,
                     "mnemosyne: cannot append dump to %s; using stderr\n",
                     path);
    }
    std::fprintf(stderr, "%s\n", out.c_str());
}

void
StatsEmitter::maybeStartFromEnv()
{
    if (const char *v = std::getenv("MNEMOSYNE_STATS_PORT")) {
        const long port = std::strtol(v, nullptr, 10);
        if (port >= 0 && port <= 65535) {
            if (instance().start(int(port)) && instance().port() != 0)
                std::fprintf(stderr,
                             "mnemosyne: stats emitter listening on "
                             "127.0.0.1:%u\n",
                             unsigned(instance().port()));
            return;
        }
    }
    // Dump-only (SIGUSR2) mode whenever stats are on at startup.
    if (enabled())
        instance().start(-1);
}

} // namespace mnemosyne::obs
