/**
 * @file
 * Client side of the KV workloads (kv_pipelined, kv_single) against a
 * running mn_kvd:
 *
 *   kv-preload  write every key once (seq 1) in BATCH transactions;
 *   kv-load     closed loop of C connections x D requests in flight,
 *               50% GET / 50% PUT, Zipf or uniform key popularity;
 *               every GET is checked to return a whole value no older
 *               than the last write on that key acked before the GET
 *               was sent; the last acked seq per key goes to --acks;
 *   kv-verify   after a clean restart, read back every key and check
 *               that it holds a whole value at least as new as its
 *               last acked write.
 *
 * Each connection writes only its own keys (key % C == connection), so
 * per-key sequence numbers are issued by one connection in order.
 */

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <memory>
#include <thread>

#include "common.h"
#include "server/kv_client.h"
#include "server/kv_protocol.h"

namespace mnbench {

namespace {

using namespace mnemosyne::server;

std::string
keyName(uint64_t idx)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%08llu", (unsigned long long)idx);
    return buf;
}

struct KvOptions {
    uint16_t port = 0;
    uint64_t keys = 10000;
    size_t value = 100;
    int conns = 1;
    int depth = 1;
    double zipf = 0;
    uint64_t seed = 1;
    double seconds = 10;
    double warmup = 0.5;
    std::string acks;
    int emitterPort = 0;
    std::string traceFile;
};

KvOptions
parse(int argc, char **argv)
{
    KvOptions o;
    o.port = uint16_t(std::stoi(argOr(argc, argv, "--port", "0")));
    o.keys = std::stoull(argOr(argc, argv, "--keys", "10000"));
    o.value = std::stoull(argOr(argc, argv, "--value", "100"));
    o.conns = std::stoi(argOr(argc, argv, "--conns", "1"));
    o.depth = std::stoi(argOr(argc, argv, "--depth", "1"));
    o.zipf = std::stod(argOr(argc, argv, "--zipf", "0"));
    o.seed = std::stoull(argOr(argc, argv, "--seed", "1"));
    o.seconds = std::stod(argOr(argc, argv, "--seconds", "10"));
    o.acks = argOr(argc, argv, "--acks", "");
    o.emitterPort = std::stoi(argOr(argc, argv, "--emitter-port", "0"));
    o.traceFile = argOr(argc, argv, "--trace-file", "");
    return o;
}

bool
validOptions(const KvOptions &o)
{
    return o.port != 0 && o.keys >= uint64_t(o.conns) && o.value >= 16 &&
           o.conns >= 1 && o.depth >= 1 && o.seconds > 0;
}

/** One line-protocol command to the stats emitter; false on failure. */
bool
emitterCommand(int port, const char *cmd)
{
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return false;
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(uint16_t(port));
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bool ok = connect(fd, reinterpret_cast<sockaddr *>(&a), sizeof(a)) == 0;
    const std::string line = std::string(cmd) + "\n";
    ok = ok && write(fd, line.data(), line.size()) == ssize_t(line.size());
    char c = 0;
    while (ok && c != '\n')
        ok = read(fd, &c, 1) == 1;
    close(fd);
    return ok;
}

// ---------------------------------------------------------------------------
// The closed-loop load.
// ---------------------------------------------------------------------------

struct Pend {
    uint64_t id;
    bool get;
    uint64_t key;
    uint64_t seq;       ///< PUT: its seq.  GET: minimum acceptable seq.
    Clock::time_point t0;
};

struct Conn {
    int fd = -1;
    std::vector<uint8_t> in, out;
    size_t inOff = 0, outOff = 0;
    std::deque<Pend> pend;
    uint64_t nextId = 1;
};

class Load
{
  public:
    explicit Load(const KvOptions &o)
        : o_(o), rng_(o.seed), acked_(o.keys, 1), sent_(o.keys, 1),
          span_((o.keys + uint64_t(o.conns) - 1) / uint64_t(o.conns)),
          spans_(o.traceFile.empty() ? 0 : 100000)
    {
        if (o.zipf > 0) {
            getZipf_ = std::make_unique<Zipf>(o.keys, o.zipf);
            putZipf_ = std::make_unique<Zipf>(span_, o.zipf);
        }
    }

    bool connectAll();
    /** Run until @p until; records ops completing inside the timed
     *  window when @p win is set.  false on a connection failure. */
    bool run(Clock::time_point until, Window *win);
    bool drain();
    void closeAll();

    uint64_t attempted = 0, failed = 0;
    const std::vector<uint64_t> &acked() const { return acked_; }
    const SpanBuffer &spans() const { return spans_; }

  private:
    void sendOne(size_t ci, Conn &c);
    bool pumpWrite(Conn &c);
    bool pumpRead(size_t ci, Conn &c, Window *win);
    void complete(size_t ci, const Pend &p, const ResponseView &v,
                  Clock::time_point now, Window *win);

    const KvOptions &o_;
    Rng rng_;
    std::vector<uint64_t> acked_, sent_;
    uint64_t span_;
    std::unique_ptr<Zipf> getZipf_, putZipf_;
    std::vector<Conn> conns_;
    std::string val_;
    SpanBuffer spans_;
};

bool
Load::connectAll()
{
    conns_.resize(size_t(o_.conns));
    for (Conn &c : conns_) {
        c.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in a{};
        a.sin_family = AF_INET;
        a.sin_port = htons(o_.port);
        a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (c.fd < 0 ||
            connect(c.fd, reinterpret_cast<sockaddr *>(&a), sizeof(a)) != 0)
            return false;
        int one = 1;
        setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
    }
    return true;
}

void
Load::closeAll()
{
    for (Conn &c : conns_)
        if (c.fd >= 0)
            close(c.fd);
    conns_.clear();
}

void
Load::sendOne(size_t ci, Conn &c)
{
    Pend p;
    p.id = c.nextId++;
    p.get = rng_.next() & 1;
    if (p.get) {
        p.key = getZipf_ ? getZipf_->sample(rng_) : rng_.below(o_.keys);
        p.seq = acked_[p.key];
    } else {
        const uint64_t r = putZipf_ ? putZipf_->sample(rng_) : rng_.below(span_);
        p.key = r * uint64_t(o_.conns) + ci;
        if (p.key >= o_.keys)
            p.key = ci;
        p.seq = ++sent_[p.key];
    }
    const std::string key = keyName(p.key);
    if (p.get) {
        appendRequest(c.out, p.id, Op::kGet, key, "");
    } else {
        fillValue(val_, o_.value, key, p.seq);
        appendRequest(c.out, p.id, Op::kPut, key, val_);
    }
    p.t0 = Clock::now();
    c.pend.push_back(p);
}

bool
Load::pumpWrite(Conn &c)
{
    while (c.outOff < c.out.size()) {
        const ssize_t n =
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
Load::complete(size_t ci, const Pend &p, const ResponseView &v,
               Clock::time_point now, Window *win)
{
    attempted++;
    const std::string key = keyName(p.key);
    bool ok = v.status == Status::kOk;
    if (p.get) {
        uint64_t seq = 0;
        ok = ok && checkValue(key, v.value, o_.value, &seq) &&
             seq >= p.seq && seq <= sent_[p.key];
    } else if (ok) {
        acked_[p.key] = std::max(acked_[p.key], p.seq);
    }
    if (!ok) {
        failed++;
        if (failed <= 5)
            std::fprintf(stderr, "mnbench kv: wrong %s result on %s\n",
                         p.get ? "GET" : "PUT", key.c_str());
    }
    if (!win)
        return;
    win->record(p.get, now, nsSince(p.t0, now));
    spans_.add(p.get ? "GET" : "PUT", uint32_t(ci + 1), p.id, p.t0, now);
}

bool
Load::pumpRead(size_t ci, Conn &c, Window *win)
{
    for (;;) {
        uint8_t chunk[64 * 1024];
        const ssize_t n = read(c.fd, chunk, sizeof(chunk));
        if (n > 0) {
            c.in.insert(c.in.end(), chunk, chunk + n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        return false;
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
        if (!parseResponse(c.in.data() + c.inOff + 4, len, &v) ||
            c.pend.empty() || c.pend.front().id != v.id)
            return false;   // malformed, or per-connection FIFO violated
        c.inOff += 4 + size_t(len);
        const Pend p = c.pend.front();
        c.pend.pop_front();
        complete(ci, p, v, now, win);
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
Load::run(Clock::time_point until, Window *win)
{
    std::vector<pollfd> pfds(conns_.size());
    for (;;) {
        const bool sending = Clock::now() < until;
        for (size_t i = 0; i < conns_.size(); ++i) {
            Conn &c = conns_[i];
            while (sending && c.pend.size() < size_t(o_.depth))
                sendOne(i, c);
            if (!pumpWrite(c))
                return false;
        }
        if (!sending)
            return true;
        for (size_t i = 0; i < conns_.size(); ++i) {
            pfds[i].fd = conns_[i].fd;
            pfds[i].events = short(
                POLLIN | (conns_[i].out.size() > conns_[i].outOff ? POLLOUT
                                                                   : 0));
            pfds[i].revents = 0;
        }
        if (poll(pfds.data(), nfds_t(pfds.size()), 10) < 0 && errno != EINTR)
            return false;
        for (size_t i = 0; i < conns_.size(); ++i) {
            if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL))
                return false;
            if ((pfds[i].revents & POLLIN) && !pumpRead(i, conns_[i], win))
                return false;
        }
    }
}

bool
Load::drain()
{
    const auto giveUp = Clock::now() + std::chrono::seconds(20);
    std::vector<pollfd> pfds(conns_.size());
    for (;;) {
        size_t outstanding = 0;
        for (size_t i = 0; i < conns_.size(); ++i) {
            if (!pumpWrite(conns_[i]))
                return false;
            outstanding += conns_[i].pend.size();
            pfds[i] = {conns_[i].fd, POLLIN, 0};
        }
        if (outstanding == 0)
            return true;
        if (Clock::now() > giveUp)
            return false;
        if (poll(pfds.data(), nfds_t(pfds.size()), 10) < 0 && errno != EINTR)
            return false;
        for (size_t i = 0; i < conns_.size(); ++i)
            if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) &&
                !pumpRead(i, conns_[i], nullptr))
                return false;
    }
}

/** Preload keys k with k % @p stride == @p first over one connection:
 *  BATCH transactions of kMaxBatchOps puts, 32 batches in flight.
 *  Returns the keys whose put failed, or -1 on a connection failure. */
int64_t
preloadSlice(const KvOptions &o, uint64_t first, uint64_t stride)
{
    KvClient cl;
    if (!cl.connect("127.0.0.1", o.port))
        return -1;
    std::vector<std::string> keys(kMaxBatchOps), vals(kMaxBatchOps);
    std::deque<size_t> inflight;    // ops per outstanding batch
    uint64_t next = first;
    int64_t failed = 0;
    while (next < o.keys || !inflight.empty()) {
        while (next < o.keys && inflight.size() < 32) {
            std::vector<BatchOp> ops;
            for (uint32_t j = 0; j < kMaxBatchOps && next < o.keys; ++j) {
                keys[j] = keyName(next);
                fillValue(vals[j], o.value, keys[j], 1);
                ops.push_back({Op::kPut, keys[j], vals[j]});
                next += stride;
            }
            const std::vector<uint8_t> body = encodeBatch(ops);
            cl.sendRaw(Op::kBatch, "",
                       std::string_view(
                           reinterpret_cast<const char *>(body.data()),
                           body.size()));
            inflight.push_back(ops.size());
        }
        KvClient::Response r;
        if (!cl.flush() || !cl.recvOne(&r))
            return -1;
        const size_t n = inflight.front();
        inflight.pop_front();
        if (r.status != Status::kOk || r.value.size() != n)
            failed += int64_t(n);
        else
            failed += std::count_if(r.value.begin(), r.value.end(), [](char c) {
                return Status(c) != Status::kOk;
            });
    }
    return failed;
}

} // namespace

int
runKvPreload(int argc, char **argv)
{
    const KvOptions o = parse(argc, argv);
    if (!validOptions(o)) {
        std::fprintf(stderr, "mnbench kv-preload: bad options\n");
        return 2;
    }
    const auto t0 = Clock::now();
    std::vector<int64_t> failed(size_t(o.conns), 0);
    std::vector<std::thread> threads;
    for (int c = 0; c < o.conns; ++c)
        threads.emplace_back([&, c] {
            failed[size_t(c)] = preloadSlice(o, uint64_t(c), uint64_t(o.conns));
        });
    for (std::thread &t : threads)
        t.join();
    int64_t nFailed = 0;
    for (int64_t f : failed) {
        if (f < 0)
            return 2;
        nFailed += f;
    }
    JsonObj out;
    out.num("preload_s", secondsSince(t0))
        .num("attempted", double(o.keys))
        .num("failed", double(nFailed));
    std::printf("%s\n", out.text().c_str());
    return nFailed ? 1 : 0;
}

int
runKvLoad(int argc, char **argv)
{
    const KvOptions o = parse(argc, argv);
    if (!validOptions(o)) {
        std::fprintf(stderr, "mnbench kv-load: bad options\n");
        return 2;
    }
    const bool traced = !o.traceFile.empty();
    Load load(o);
    if (!load.connectAll()) {
        std::fprintf(stderr, "mnbench kv-load: connect failed\n");
        return 2;
    }
    bool ok = load.run(Clock::now() + std::chrono::microseconds(
                                          int64_t(o.warmup * 1e6)),
                       nullptr);

    // Counter snapshots bracket the window; the emitter reset makes the
    // server's histograms cover the window alone.
    KvClient statCl;
    std::string statBefore, statAfter;
    if (ok && traced) {
        ok = (o.emitterPort == 0 || emitterCommand(o.emitterPort, "reset")) &&
             statCl.connect("127.0.0.1", o.port) && statCl.stat(&statBefore);
    }
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::microseconds(int64_t(o.seconds * 1e6));
    Window win(start, o.seconds);
    ok = ok && load.run(deadline, &win);
    const double wall = secondsSince(start);
    const double cpu = cpuSeconds() - cpu0;
    if (ok && traced)
        ok = statCl.stat(&statAfter);
    ok = ok && load.drain();
    load.closeAll();
    if (!ok) {
        std::fprintf(stderr, "mnbench kv-load: connection failed\n");
        return 2;
    }

    if (!o.acks.empty()) {
        FILE *f = std::fopen(o.acks.c_str(), "wb");
        const size_t n = load.acked().size();
        if (!f || std::fwrite(load.acked().data(), 8, n, f) != n ||
            std::fclose(f) != 0) {
            std::fprintf(stderr, "mnbench kv-load: cannot write %s\n",
                         o.acks.c_str());
            return 2;
        }
    }
    if (traced && !load.spans().writeChromeTrace(o.traceFile, "mnbench kv"))
        std::fprintf(stderr, "mnbench kv-load: cannot write %s\n",
                     o.traceFile.c_str());

    JsonObj out;
    out.num("attempted", double(load.attempted))
        .num("failed", double(load.failed))
        .num("window_s", wall)
        .raw("window", windowSummary(win, wall))
        .num("client_cpu_s", cpu);
    if (traced) {
        out.raw("stat_before", statBefore)
            .raw("stat_after", statAfter)
            .num("spans", double(load.spans().size()))
            .num("spans_dropped", double(load.spans().dropped()));
    }
    std::printf("%s\n", out.text().c_str());
    return load.failed ? 1 : 0;
}

int
runKvVerify(int argc, char **argv)
{
    const KvOptions o = parse(argc, argv);
    if (!validOptions(o) || o.acks.empty()) {
        std::fprintf(stderr, "mnbench kv-verify: bad options\n");
        return 2;
    }
    std::vector<uint64_t> acked(o.keys, 0);
    FILE *f = std::fopen(o.acks.c_str(), "rb");
    if (!f || std::fread(acked.data(), 8, acked.size(), f) != acked.size()) {
        std::fprintf(stderr, "mnbench kv-verify: cannot read %s\n",
                     o.acks.c_str());
        return 2;
    }
    std::fclose(f);

    KvClient cl;
    if (!cl.connect("127.0.0.1", o.port))
        return 2;
    uint64_t next = 0, done = 0, failed = 0;
    std::deque<uint64_t> inflight;
    while (done < o.keys) {
        while (next < o.keys && inflight.size() < 64) {
            cl.sendRaw(Op::kGet, keyName(next), "");
            inflight.push_back(next++);
        }
        KvClient::Response r;
        if (!cl.flush() || !cl.recvOne(&r))
            return 2;
        const uint64_t k = inflight.front();
        inflight.pop_front();
        done++;
        uint64_t seq = 0;
        if (r.status != Status::kOk ||
            !checkValue(keyName(k), r.value, o.value, &seq) ||
            seq < acked[k]) {
            failed++;
            if (failed <= 5)
                std::fprintf(stderr,
                             "mnbench kv-verify: key %s lost its acked "
                             "write (seq %llu)\n",
                             keyName(k).c_str(),
                             (unsigned long long)acked[k]);
        }
    }
    JsonObj out;
    out.num("attempted", double(o.keys)).num("failed", double(failed));
    std::printf("%s\n", out.text().c_str());
    return failed ? 1 : 0;
}

} // namespace mnbench
