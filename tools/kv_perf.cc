/**
 * @file
 * kv_perf: load generator + recovery verifier for the KV service.
 *
 * Load mode: T driver threads multiplex C non-blocking connections with
 * a fixed per-connection pipeline depth, mixing GET/PUT by --read-ratio
 * over a --keys keyspace.  Reports throughput and p50/p99/p999 latency
 * (separately for reads and writes) and optionally a --json report plus
 * an exact fences-per-transaction figure computed from the server's own
 * emulator counters via the STAT protocol op (--stat-delta) — counter
 * deltas are immune to runner noise, which is what lets CI gate on
 * them.
 *
 * Crash protocol: every connection owns a disjoint write-key slice, and
 * PUT values embed (seq, fnv64(key,seq), fill); an ack is recorded to
 * --record-acks only AFTER the response arrives, i.e. exactly when the
 * server promised durability.  After a SIGKILL + restart, --verify
 * replays the ack file: every acked key must be present with a valid
 * checksum and seq >= the last acked seq, and every OTHER readable key
 * must also carry a valid checksum — a torn (partially applied) write
 * is detectable no matter whether it was acked.  --expect-reset makes a
 * mid-load connection reset a success (the killer got us).
 */

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/hdr_histogram.h"
#include "server/kv_client.h"
#include "server/kv_protocol.h"

using namespace mnemosyne::server;
using Clock = std::chrono::steady_clock;

namespace {

volatile std::sig_atomic_t gStop = 0;
void
onSignal(int)
{
    gStop = 1;
}

/** Client-side latency histogram: HDR buckets (~3% value precision),
 *  one per loader thread, merged at the end; no registry, no gate. */
using Hdr = mnemosyne::obs::HdrHistogram::Data;

uint64_t
fnv64(std::string_view s, uint64_t seq)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= uint8_t(c);
        h *= 0x100000001b3ULL;
    }
    for (int i = 0; i < 8; ++i) {
        h ^= uint8_t(seq >> (8 * i));
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
keyName(uint32_t idx)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%08u", idx);
    return buf;
}

/** value := u64 seq | u64 fnv64(key,seq) | deterministic fill. */
void
fillValue(std::vector<uint8_t> &v, size_t size, std::string_view key,
          uint64_t seq)
{
    v.resize(size);
    const uint64_t sum = fnv64(key, seq);
    std::memcpy(v.data(), &seq, 8);
    std::memcpy(v.data() + 8, &sum, 8);
    for (size_t i = 16; i < size; ++i)
        v[i] = uint8_t(seq + i);
}

/** Validate a read-back value; @p seq_out gets the embedded seq. */
bool
checkValue(std::string_view key, std::string_view v, size_t expect_size,
           uint64_t *seq_out)
{
    if (v.size() != expect_size || v.size() < 16)
        return false;
    uint64_t seq, sum;
    std::memcpy(&seq, v.data(), 8);
    std::memcpy(&sum, v.data() + 8, 8);
    if (sum != fnv64(key, seq))
        return false;
    for (size_t i = 16; i < v.size(); ++i)
        if (uint8_t(v[i]) != uint8_t(seq + i))
            return false;
    if (seq_out)
        *seq_out = seq;
    return true;
}

double
statValue(const std::string &json, const std::string &key)
{
    const std::string pat = "\"" + key + "\":";
    const auto p = json.find(pat);
    if (p == std::string::npos)
        return 0.0;
    return std::atof(json.c_str() + p + pat.size());
}

// ---------------------------------------------------------------------------

struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    int connections = 1;
    int pipeline = 1;
    int threads = 0;        // 0 = auto
    double seconds = 5.0;
    uint32_t keys = 10000;
    size_t value_size = 100;
    double read_ratio = 0.0;
    uint64_t seed = 1;
    bool preload = true;
    bool expect_reset = false;
    bool stat_delta = false;
    std::string json_path;
    std::string acks_path;
    std::string verify_path;
};

struct Pend {
    uint64_t id;
    Op op;
    uint32_t keyIdx;
    uint64_t seq;
    Clock::time_point t0;
};

struct PConn {
    int fd = -1;
    uint32_t globalId = 0;
    std::vector<uint8_t> in;
    size_t inOff = 0;
    std::vector<uint8_t> out;
    size_t outOff = 0;
    std::deque<Pend> pend;
    uint64_t nextId = 1;
    uint64_t rng;
    bool dead = false;
};

struct ThreadResult {
    Hdr read_ns, write_ns;
    uint64_t reads = 0, writes = 0, errors = 0;
    bool saw_reset = false;
    std::vector<std::pair<uint32_t, uint64_t>> acks;    // (keyIdx, seq)
};

uint64_t
nextRand(uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

int
connectTo(const Options &opt)
{
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opt.port);
    inet_pton(AF_INET, opt.host.c_str(), &addr.sin_addr);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) < 0) {
        close(fd);
        return -1;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

/** Per-key write sequence counters; connections own disjoint key
 *  slices (keyIdx % connections == conn.globalId) so no two
 *  connections ever write the same key. */
std::vector<std::atomic<uint64_t>> *gSeqs;

void
sendOne(const Options &opt, PConn &c, std::vector<uint8_t> &vbuf)
{
    const bool isRead =
        double(nextRand(c.rng) % 10000) < opt.read_ratio * 10000.0;
    uint32_t keyIdx;
    Pend p;
    p.id = c.nextId++;
    p.t0 = Clock::now();
    if (isRead) {
        keyIdx = uint32_t(nextRand(c.rng) % opt.keys);
        p.op = Op::kGet;
        p.keyIdx = keyIdx;
        p.seq = 0;
        appendRequest(c.out, p.id, Op::kGet, keyName(keyIdx), "");
    } else {
        // Stay inside this connection's disjoint write slice.
        const uint32_t slice = uint32_t(opt.connections);
        const uint32_t span = (opt.keys + slice - 1) / slice;
        keyIdx = (uint32_t(nextRand(c.rng)) % span) * slice + c.globalId;
        if (keyIdx >= opt.keys)
            keyIdx = c.globalId % opt.keys;
        const uint64_t seq =
            (*gSeqs)[keyIdx].fetch_add(1, std::memory_order_relaxed) + 1;
        const std::string key = keyName(keyIdx);
        fillValue(vbuf, opt.value_size, key, seq);
        p.op = Op::kPut;
        p.keyIdx = keyIdx;
        p.seq = seq;
        appendRequest(c.out, p.id, Op::kPut, key,
                      std::string_view(
                          reinterpret_cast<const char *>(vbuf.data()),
                          vbuf.size()));
    }
    c.pend.push_back(p);
}

/** Drain readable bytes and complete responses; false on EOF/error. */
bool
pumpRead(const Options &opt, PConn &c, ThreadResult &res)
{
    for (;;) {
        uint8_t chunk[64 * 1024];
        ssize_t n = read(c.fd, chunk, sizeof(chunk));
        if (n > 0) {
            c.in.insert(c.in.end(), chunk, chunk + n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        return false;   // EOF or hard error
    }
    const auto now = Clock::now();
    for (;;) {
        const size_t avail = c.in.size() - c.inOff;
        if (avail < 4)
            break;
        const uint32_t len = getU32(c.in.data() + c.inOff);
        if (len > kMaxFrameBytes)
            return false;
        if (avail < 4 + size_t(len))
            break;
        ResponseView v;
        if (!parseResponse(c.in.data() + c.inOff + 4, len, &v))
            return false;
        c.inOff += 4 + size_t(len);
        if (c.pend.empty() || c.pend.front().id != v.id)
            return false;   // per-connection FIFO violated
        const Pend p = c.pend.front();
        c.pend.pop_front();
        const uint64_t ns = uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - p.t0)
                .count());
        if (p.op == Op::kGet) {
            res.read_ns.record(ns);
            res.reads++;
            if (v.status != Status::kOk && v.status != Status::kNotFound)
                res.errors++;
        } else {
            res.write_ns.record(ns);
            res.writes++;
            if (v.status == Status::kOk) {
                if (!opt.acks_path.empty())
                    res.acks.emplace_back(p.keyIdx, p.seq);
            } else {
                res.errors++;
            }
        }
    }
    if (c.inOff == c.in.size()) {
        c.in.clear();
        c.inOff = 0;
    } else if (c.inOff > (256u << 10)) {
        c.in.erase(c.in.begin(), c.in.begin() + ptrdiff_t(c.inOff));
        c.inOff = 0;
    }
    return true;
}

bool
pumpWrite(PConn &c)
{
    while (c.outOff < c.out.size()) {
        ssize_t n =
            write(c.fd, c.out.data() + c.outOff, c.out.size() - c.outOff);
        if (n > 0) {
            c.outOff += size_t(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    if (c.outOff == c.out.size()) {
        c.out.clear();
        c.outOff = 0;
    }
    return true;
}

void
driverThread(const Options &opt, std::vector<uint32_t> connIds,
             Clock::time_point deadline, ThreadResult &res)
{
    std::vector<PConn> conns(connIds.size());
    for (size_t i = 0; i < connIds.size(); ++i) {
        conns[i].globalId = connIds[i];
        conns[i].rng = opt.seed * 0x9e3779b97f4a7c15ULL + connIds[i] + 1;
        conns[i].fd = connectTo(opt);
        if (conns[i].fd < 0) {
            conns[i].dead = true;
            res.saw_reset = true;
            continue;
        }
        int fl = fcntl(conns[i].fd, F_GETFL, 0);
        fcntl(conns[i].fd, F_SETFL, fl | O_NONBLOCK);
    }

    std::vector<uint8_t> vbuf;
    std::vector<pollfd> pfds(conns.size());
    bool draining = false;
    auto drainDeadline = deadline + std::chrono::seconds(5);

    for (;;) {
        const auto now = Clock::now();
        if (gStop)
            draining = true;
        if (!draining && now >= deadline)
            draining = true;
        size_t alive = 0, outstanding = 0;
        for (PConn &c : conns) {
            if (c.dead)
                continue;
            alive++;
            if (!draining) {
                while (c.pend.size() < size_t(opt.pipeline))
                    sendOne(opt, c, vbuf);
            }
            outstanding += c.pend.size();
        }
        if (alive == 0)
            break;
        if (draining && (outstanding == 0 || now >= drainDeadline))
            break;

        size_t np = 0;
        for (size_t i = 0; i < conns.size(); ++i) {
            if (conns[i].dead)
                continue;
            pfds[np].fd = conns[i].fd;
            pfds[np].events =
                short(POLLIN | (conns[i].out.size() > conns[i].outOff
                                    ? POLLOUT
                                    : 0));
            pfds[np].revents = 0;
            np++;
        }
        if (poll(pfds.data(), nfds_t(np), 10) < 0 && errno != EINTR)
            break;
        size_t pi = 0;
        for (size_t i = 0; i < conns.size(); ++i) {
            PConn &c = conns[i];
            if (c.dead)
                continue;
            const short re = pfds[pi++].revents;
            bool ok = true;
            if (re & (POLLERR | POLLHUP))
                ok = pumpRead(opt, c, res);     // collect final acks
            else {
                if (re & POLLOUT)
                    ok = pumpWrite(c);
                if (ok && (re & POLLIN))
                    ok = pumpRead(opt, c, res);
                else if (ok && c.out.size() > c.outOff)
                    ok = pumpWrite(c);
            }
            if (!ok) {
                close(c.fd);
                c.dead = true;
                res.saw_reset = true;
            }
        }
    }
    for (PConn &c : conns)
        if (!c.dead)
            close(c.fd);
}

bool
preloadKeys(const Options &opt, std::vector<std::pair<uint32_t, uint64_t>> *acks)
{
    KvClient cl;
    if (!cl.connect(opt.host, opt.port))
        return false;
    std::vector<uint8_t> vbuf;
    const size_t window = 256;
    uint32_t sent = 0, acked = 0;
    while (acked < opt.keys) {
        while (sent < opt.keys && sent - acked < window) {
            const std::string key = keyName(sent);
            const uint64_t seq =
                (*gSeqs)[sent].fetch_add(1, std::memory_order_relaxed) + 1;
            fillValue(vbuf, opt.value_size, key, seq);
            cl.sendRaw(Op::kPut, key,
                       std::string_view(
                           reinterpret_cast<const char *>(vbuf.data()),
                           vbuf.size()));
            sent++;
        }
        if (!cl.flush())
            return false;
        KvClient::Response r;
        if (!cl.recvOne(&r))
            return false;
        if (r.status != Status::kOk)
            return false;
        if (acks)
            acks->emplace_back(acked, 1);
        acked++;
    }
    return true;
}

int
runVerify(const Options &opt)
{
    // Last acked seq per key from the ack file.
    std::map<uint32_t, uint64_t> lastAcked;
    FILE *f = std::fopen(opt.verify_path.c_str(), "r");
    if (!f) {
        std::fprintf(stderr, "kv_perf: cannot open %s\n",
                     opt.verify_path.c_str());
        return 2;
    }
    char line[128];
    while (std::fgets(line, sizeof(line), f)) {
        if (line[0] == '#')
            continue;
        unsigned long long k, s;
        if (std::sscanf(line, "%llu %llu", &k, &s) == 2) {
            auto &cur = lastAcked[uint32_t(k)];
            if (s > cur)
                cur = s;
        }
    }
    std::fclose(f);

    KvClient cl;
    if (!cl.connect(opt.host, opt.port)) {
        std::fprintf(stderr, "kv_perf: verify connect failed\n");
        return 2;
    }
    uint64_t checked = 0, missing = 0, stale = 0, torn = 0, extra_ok = 0;
    for (uint32_t k = 0; k < opt.keys; ++k) {
        const std::string key = keyName(k);
        std::string v;
        const Status st = cl.get(key, &v);
        const auto it = lastAcked.find(k);
        if (it != lastAcked.end()) {
            checked++;
            if (st != Status::kOk) {
                missing++;
                std::fprintf(stderr, "VERIFY FAIL: acked key %s missing\n",
                             key.c_str());
                continue;
            }
            uint64_t seq = 0;
            if (!checkValue(key, v, opt.value_size, &seq)) {
                torn++;
                std::fprintf(stderr, "VERIFY FAIL: acked key %s torn\n",
                             key.c_str());
                continue;
            }
            if (seq < it->second) {
                stale++;
                std::fprintf(stderr,
                             "VERIFY FAIL: key %s seq %llu < acked %llu\n",
                             key.c_str(), (unsigned long long)seq,
                             (unsigned long long)it->second);
            }
        } else if (st == Status::kOk) {
            // Unacked but visible: allowed (committed before the crash),
            // but it must be WHOLE — a torn value is a durability bug.
            if (!checkValue(key, v, opt.value_size, nullptr)) {
                torn++;
                std::fprintf(stderr,
                             "VERIFY FAIL: unacked key %s torn\n",
                             key.c_str());
            } else {
                extra_ok++;
            }
        }
    }
    std::printf("kv_perf verify: %llu acked checked, %llu unacked visible "
                "(whole), %llu missing, %llu stale, %llu torn\n",
                (unsigned long long)checked, (unsigned long long)extra_ok,
                (unsigned long long)missing, (unsigned long long)stale,
                (unsigned long long)torn);
    return (missing || stale || torn) ? 1 : 0;
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: kv_perf --port P [options]\n"
        "  --host H           server address (default 127.0.0.1)\n"
        "  --connections C    concurrent connections (default 1)\n"
        "  --pipeline D       in-flight requests per connection (default 1)\n"
        "  --threads T        driver threads (default min(C,8))\n"
        "  --seconds S        load duration (default 5)\n"
        "  --keys N           keyspace size (default 10000)\n"
        "  --value-size B     value bytes, >=16 (default 100)\n"
        "  --read-ratio R     GET fraction 0..1 (default 0)\n"
        "  --seed S           RNG seed (default 1)\n"
        "  --no-preload       skip initial load of the keyspace\n"
        "  --json FILE        write a machine-readable report\n"
        "  --stat-delta       compute exact fences/txn from server stats\n"
        "  --record-acks F    append 'keyIdx seq' per acked write to F\n"
        "  --expect-reset     connection resets are expected (crash test)\n"
        "  --verify F         verify mode: check acks in F, then exit\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--host")
            opt.host = next();
        else if (a == "--port")
            opt.port = uint16_t(std::atoi(next()));
        else if (a == "--connections")
            opt.connections = std::atoi(next());
        else if (a == "--pipeline")
            opt.pipeline = std::atoi(next());
        else if (a == "--threads")
            opt.threads = std::atoi(next());
        else if (a == "--seconds")
            opt.seconds = std::atof(next());
        else if (a == "--keys")
            opt.keys = uint32_t(std::atoll(next()));
        else if (a == "--value-size")
            opt.value_size = size_t(std::atoll(next()));
        else if (a == "--read-ratio")
            opt.read_ratio = std::atof(next());
        else if (a == "--seed")
            opt.seed = uint64_t(std::atoll(next()));
        else if (a == "--no-preload")
            opt.preload = false;
        else if (a == "--json")
            opt.json_path = next();
        else if (a == "--stat-delta")
            opt.stat_delta = true;
        else if (a == "--record-acks")
            opt.acks_path = next();
        else if (a == "--expect-reset")
            opt.expect_reset = true;
        else if (a == "--verify")
            opt.verify_path = next();
        else
            usage();
    }
    if (opt.port == 0 || opt.connections < 1 || opt.pipeline < 1 ||
        opt.value_size < 16 || opt.keys < 1)
        usage();

    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    static std::vector<std::atomic<uint64_t>> seqs(opt.keys);
    gSeqs = &seqs;

    if (!opt.verify_path.empty())
        return runVerify(opt);

    std::vector<std::pair<uint32_t, uint64_t>> preloadAcks;
    if (opt.preload) {
        if (!preloadKeys(opt, opt.acks_path.empty() ? nullptr
                                                    : &preloadAcks)) {
            std::fprintf(stderr, "kv_perf: preload failed\n");
            return 2;
        }
    }

    std::string statBefore, statAfter;
    KvClient statCl;
    if (opt.stat_delta) {
        if (!statCl.connect(opt.host, opt.port) ||
            !statCl.stat(&statBefore)) {
            std::fprintf(stderr, "kv_perf: STAT failed\n");
            return 2;
        }
    }

    int nthreads = opt.threads;
    if (nthreads <= 0) {
        const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
        nthreads = int(std::min({unsigned(opt.connections), 8u, hw}));
    }
    std::vector<std::vector<uint32_t>> assign(static_cast<size_t>(nthreads));
    for (int c = 0; c < opt.connections; ++c)
        assign[size_t(c % nthreads)].push_back(uint32_t(c));

    std::vector<ThreadResult> results(static_cast<size_t>(nthreads));
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::microseconds(int64_t(opt.seconds * 1e6));
    std::vector<std::thread> threads;
    for (int t = 0; t < nthreads; ++t)
        threads.emplace_back(driverThread, std::cref(opt), assign[size_t(t)],
                             deadline, std::ref(results[size_t(t)]));
    for (auto &th : threads)
        th.join();
    const double elapsed =
        double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0)
                   .count()) /
        1e9;

    ThreadResult total;
    for (ThreadResult &r : results) {
        total.read_ns.merge(r.read_ns);
        total.write_ns.merge(r.write_ns);
        total.reads += r.reads;
        total.writes += r.writes;
        total.errors += r.errors;
        total.saw_reset = total.saw_reset || r.saw_reset;
    }

    if (!opt.acks_path.empty()) {
        if (FILE *f = std::fopen(opt.acks_path.c_str(), "w")) {
            std::fprintf(f, "# kv_perf acks keys=%u value_size=%zu\n",
                         opt.keys, opt.value_size);
            for (auto &[k, s] : preloadAcks)
                std::fprintf(f, "%u %llu\n", k, (unsigned long long)s);
            for (ThreadResult &r : results)
                for (auto &[k, s] : r.acks)
                    std::fprintf(f, "%u %llu\n", k, (unsigned long long)s);
            std::fflush(f);
            fsync(fileno(f));
            std::fclose(f);
        }
    }

    double fences_per_txn = -1.0;
    if (opt.stat_delta && statCl.connected() && statCl.stat(&statAfter)) {
        const double dFences = statValue(statAfter, "scm.fences") -
                               statValue(statBefore, "scm.fences");
        const double dCommits = statValue(statAfter, "mtm.commits") -
                                statValue(statBefore, "mtm.commits");
        if (dCommits > 0)
            fences_per_txn = dFences / dCommits;
    }

    const uint64_t ops = total.reads + total.writes;
    const double thr = elapsed > 0 ? double(ops) / elapsed : 0;
    std::printf("kv_perf: conns=%d pipeline=%d threads=%d seconds=%.2f "
                "read_ratio=%.2f value=%zuB keys=%u\n",
                opt.connections, opt.pipeline, nthreads, elapsed,
                opt.read_ratio, opt.value_size, opt.keys);
    std::printf("  throughput: %.0f ops/s (%llu reads, %llu writes, %llu "
                "errors)%s\n",
                thr, (unsigned long long)total.reads,
                (unsigned long long)total.writes,
                (unsigned long long)total.errors,
                total.saw_reset ? " [connection reset]" : "");
    auto row = [](const char *name, const Hdr &h) {
        std::printf("  %s latency ns: p50=%llu p99=%llu p999=%llu (n=%llu)\n",
                    name, (unsigned long long)h.quantile(0.50),
                    (unsigned long long)h.quantile(0.99),
                    (unsigned long long)h.quantile(0.999),
                    (unsigned long long)h.count);
    };
    if (total.write_ns.count)
        row("write", total.write_ns);
    if (total.read_ns.count)
        row("read", total.read_ns);
    if (fences_per_txn >= 0)
        std::printf("  fences/txn (exact, from server counters): %.4f\n",
                    fences_per_txn);

    if (!opt.json_path.empty()) {
        if (FILE *f = std::fopen(opt.json_path.c_str(), "w")) {
            std::fprintf(
                f,
                "{\"bench\":\"kv_perf\",\"config\":{\"connections\":%d,"
                "\"pipeline\":%d,\"threads\":%d,\"seconds\":%.3f,"
                "\"keys\":%u,\"value_size\":%zu,\"read_ratio\":%.3f,"
                "\"seed\":%llu},\"metrics\":{\"throughput_ops\":%.1f,"
                "\"reads\":%llu,\"writes\":%llu,\"errors\":%llu,"
                "\"write_p50_ns\":%llu,\"write_p99_ns\":%llu,"
                "\"write_p999_ns\":%llu,\"read_p50_ns\":%llu,"
                "\"read_p99_ns\":%llu,\"read_p999_ns\":%llu,"
                "\"fences_per_txn\":%.6f,\"saw_reset\":%s}}\n",
                opt.connections, opt.pipeline, nthreads, elapsed, opt.keys,
                opt.value_size, opt.read_ratio,
                (unsigned long long)opt.seed, thr,
                (unsigned long long)total.reads,
                (unsigned long long)total.writes,
                (unsigned long long)total.errors,
                (unsigned long long)total.write_ns.quantile(0.50),
                (unsigned long long)total.write_ns.quantile(0.99),
                (unsigned long long)total.write_ns.quantile(0.999),
                (unsigned long long)total.read_ns.quantile(0.50),
                (unsigned long long)total.read_ns.quantile(0.99),
                (unsigned long long)total.read_ns.quantile(0.999),
                fences_per_txn, total.saw_reset ? "true" : "false");
            std::fclose(f);
        }
    }

    if (total.saw_reset && !opt.expect_reset)
        return 3;
    return 0;
}
