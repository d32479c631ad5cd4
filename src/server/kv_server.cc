#include "server/kv_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "obs/obs.h"
#include "obs/stats_registry.h"

namespace mnemosyne::server {

namespace {

struct ServerObs {
    obs::Counter accepts{"server.accepts"};
    obs::Counter conns_closed{"server.conns_closed"};
    obs::Counter requests{"server.requests"};
    obs::Counter gets{"server.gets"};
    obs::Counter puts{"server.puts"};
    obs::Counter dels{"server.dels"};
    obs::Counter batches{"server.batches"};
    obs::Counter errors{"server.errors"};
    obs::Counter bytes_in{"server.bytes_in"};
    obs::Counter bytes_out{"server.bytes_out"};
    /** Pass start -> the pass's durability wait returned. */
    obs::HdrHistogram request_ns{"server.request_ns"};
    /** The pass-end durability wait. */
    obs::HdrHistogram wait_ns{"server.wait_ns"};
    /** Complete frames a connection has buffered after a read. */
    obs::HdrHistogram queue_depth{"server.queue_depth"};
    /** Requests executed per connection per pass. */
    obs::HdrHistogram worker_batch{"server.worker_batch"};
};

ServerObs &
sobs()
{
    static ServerObs o;
    return o;
}

constexpr uint64_t kListenTag = 1;
constexpr uint64_t kWakeTag = 2;

/** Frames a loop executes per connection per pass: bounds how long one
 *  deep pipeline holds the pass (and so its peers' acks). */
constexpr size_t kFramesPerPass = 32;
/** Unsent response bytes past which a connection is not read until
 *  EPOLLOUT drains it (per-connection backpressure). */
constexpr size_t kMaxUnsentBytes = 256u << 10;
/** Unparsed bytes a connection buffers before the loop leaves the rest
 *  in the kernel (more only while no whole frame is buffered). */
constexpr size_t kReadBudget = 64u << 10;
/** Consumed buffer prefix worth compacting away. */
constexpr size_t kCompactBytes = 64u << 10;

/** Length of the whole frame at @p off, 0 if it is not all buffered.
 *  A length the protocol rejects counts as whole: the parser then
 *  drops the connection instead of reading on. */
size_t
frameAt(const std::vector<uint8_t> &rd, size_t off)
{
    const size_t avail = rd.size() - off;
    if (avail < 4)
        return 0;
    const uint32_t len = getU32(rd.data() + off);
    if (len > kMaxFrameBytes)
        return 4;
    return avail >= 4 + size_t(len) ? 4 + size_t(len) : 0;
}

void
compact(std::vector<uint8_t> &buf, size_t &off)
{
    if (off == buf.size()) {
        buf.clear();
        off = 0;
    } else if (off >= kCompactBytes) {
        buf.erase(buf.begin(), buf.begin() + ptrdiff_t(off));
        off = 0;
    }
}

void
watch(int epfd, int fd, uint64_t tag)
{
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
}

void
kick(int wakeFd)
{
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wakeFd, &one, sizeof(one));
}

} // namespace

KvServer::KvServer(Runtime &rt, KvServerConfig cfg)
    : rt_(rt), cfg_(cfg), table_(rt, cfg_.table, cfg_.nbuckets)
{
    // The runtime supports 64 staging/obs thread ordinals per process;
    // leave room for the main thread, the truncator, and the emitter.
    cfg_.workers = std::clamp(cfg_.workers, 1, 32);
}

KvServer::~KvServer() { stop(); }

bool
KvServer::start()
{
    listenFd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        return false;
    int one = 1;
    setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.port);
    if (bind(listenFd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
            0 ||
        listen(listenFd_, 1024) < 0) {
        close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    socklen_t alen = sizeof(addr);
    getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr), &alen);
    port_ = ntohs(addr.sin_port);

    stop_ = false;
    for (int i = 0; i < cfg_.workers; ++i) {
        auto lp = std::make_unique<Loop>();
        lp->epfd = epoll_create1(EPOLL_CLOEXEC);
        lp->wakeFd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        watch(lp->epfd, lp->wakeFd, kWakeTag);
        if (i == 0)
            watch(lp->epfd, listenFd_, kListenTag);
        loops_.push_back(std::move(lp));
    }
    for (auto &lp : loops_) {
        Loop *l = lp.get();
        l->thr = std::thread([this, l] { loopMain(*l); });
    }
    started_ = true;
    return true;
}

void
KvServer::stop()
{
    if (!started_)
        return;
    stop_ = true;
    for (auto &lp : loops_)
        kick(lp->wakeFd);
    for (auto &lp : loops_)
        lp->thr.join();
    // Only now may the wake fds close: stop() and loop 0 kick them.
    for (auto &lp : loops_) {
        for (ConnPtr &c : lp->newConns)  // dealt to a stopped loop
            close(c->fd);
        close(lp->epfd);
        close(lp->wakeFd);
    }
    loops_.clear();
    close(listenFd_);
    listenFd_ = -1;

    // Durability epilogue: everything acked is already durable, but a
    // clean stop must ALSO leave the log empty — retire open epochs
    // and drain the truncator so restart replays zero transactions.
    rt_.sync();
    rt_.txns().drainTruncation();
    started_ = false;
}

void
KvServer::loopMain(Loop &lp)
{
    epoll_event evs[128];
    while (!stop_.load(std::memory_order_acquire)) {
        // Connections with frames left over from the last pass keep
        // the loop polling instead of sleeping.
        const int n = epoll_wait(lp.epfd, evs, 128, lp.run.empty() ? 100 : 0);
        if (n < 0 && errno != EINTR)
            break;
        for (int i = 0; i < n; ++i) {
            if (evs[i].data.u64 == kWakeTag) {
                uint64_t drain;
                while (read(lp.wakeFd, &drain, sizeof(drain)) > 0) {
                }
                std::vector<ConnPtr> fresh;
                {
                    std::lock_guard<std::mutex> lk(lp.mu);
                    fresh.swap(lp.newConns);
                }
                for (ConnPtr &c : fresh)
                    addConn(lp, std::move(c));
            } else if (evs[i].data.u64 == kListenTag) {
                acceptPending(lp);
            } else {
                connEvent(lp, static_cast<Conn *>(evs[i].data.ptr),
                          evs[i].events);
            }
        }
        if (!lp.run.empty())
            runPass(lp);
    }
    drainAndClose(lp);
    // Retire this thread's last staged async commit and reap its graves
    // before the thread disappears (slots are per-thread-ordinal).
    rt_.syncThreadStaging();
}

void
KvServer::acceptPending(Loop &lp)
{
    for (;;) {
        const int fd = accept4(listenFd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0)
            break;  // EAGAIN, or transient (EMFILE sheds load)
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto c = std::make_shared<Conn>();
        c->fd = fd;
        sobs().accepts.add(1);
        Loop &dst = *loops_[nextLoop_++ % loops_.size()];
        if (&dst == &lp) {
            addConn(lp, std::move(c));
            continue;
        }
        {
            std::lock_guard<std::mutex> lk(dst.mu);
            dst.newConns.push_back(std::move(c));
        }
        kick(dst.wakeFd);
    }
}

void
KvServer::addConn(Loop &lp, ConnPtr c)
{
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c.get();
    epoll_ctl(lp.epfd, EPOLL_CTL_ADD, c->fd, &ev);
    c->armed = EPOLLIN;
    Conn *raw = c.get();
    lp.conns.emplace(raw, std::move(c));
}

void
KvServer::connEvent(Loop &lp, Conn *raw, uint32_t events)
{
    auto it = lp.conns.find(raw);
    if (it == lp.conns.end())
        return;
    const ConnPtr c = it->second;
    if (events & (EPOLLHUP | EPOLLERR)) {
        closeConn(lp, c);
        return;
    }
    if (events & EPOLLOUT)
        flushConn(lp, c);   // may lift the backpressure pause
    if (c->fd < 0 || !(c->armed & EPOLLIN))
        return;
    if (events & EPOLLIN)
        readConn(lp, c);
    else
        schedule(lp, c);    // resumed: execute what is still buffered
}

void
KvServer::readConn(Loop &lp, const ConnPtr &c)
{
    // Read until the socket is dry or kReadBudget unparsed bytes (with
    // a whole frame among them) are buffered; level-triggered epoll
    // reports the rest again next pass.
    uint8_t chunk[64 * 1024];
    while (c->rd.size() - c->rdOff < kReadBudget ||
           frameAt(c->rd, c->rdOff) == 0) {
        const ssize_t n = read(c->fd, chunk, sizeof(chunk));
        if (n > 0) {
            c->rd.insert(c->rd.end(), chunk, chunk + n);
            sobs().bytes_in.add(uint64_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        closeConn(lp, c);   // EOF or error
        return;
    }
    if (obs::enabled()) {
        size_t frames = 0;
        for (size_t off = c->rdOff, len; (len = frameAt(c->rd, off)) > 4;
             off += len)
            ++frames;
        sobs().queue_depth.record(frames);
    }
    schedule(lp, c);
}

void
KvServer::schedule(Loop &lp, const ConnPtr &c)
{
    if (!c->scheduled && frameAt(c->rd, c->rdOff) != 0) {
        c->scheduled = true;
        lp.run.push_back(c);
    }
}

void
KvServer::runPass(Loop &lp)
{
    const uint64_t t0 = obs::tickNow();
    uint64_t maxEpoch = 0;
    size_t executed = 0;
    lp.pass.swap(lp.run);
    for (const ConnPtr &c : lp.pass) {
        size_t n = 0;
        size_t len;
        while (c->fd >= 0 && n < kFramesPerPass &&
               (len = frameAt(c->rd, c->rdOff)) != 0) {
            RequestView v;
            if (len - 4 < kRequestHeaderBytes ||
                !parseRequest(c->rd.data() + c->rdOff + 4, len - 4, &v)) {
                closeConn(lp, c);   // protocol error: drop the connection
                break;
            }
            execute(v, c->wr, &maxEpoch);
            c->rdOff += len;
            ++n;
        }
        if (n != 0)
            sobs().worker_batch.record(n);
        executed += n;
    }

    // ONE durability wait covers the whole pass: epochs retire in
    // order, so waiting on the newest epoch implies all earlier ones.
    // It seals the open epoch at once; other loops' commits that
    // joined it share the fence.
    if (maxEpoch != 0) {
        const uint64_t w0 = obs::tickNow();
        rt_.wait(mtm::CommitTicket{maxEpoch});
        sobs().wait_ns.record(obs::ticksToNs(obs::tickNow() - w0));
    }
    const uint64_t reqNs = obs::ticksToNs(obs::tickNow() - t0);
    for (size_t i = 0; i < executed; ++i)
        sobs().request_ns.record(reqNs);
    served_.fetch_add(executed, std::memory_order_relaxed);

    // Release the pass's responses; connections with frames left (and
    // reading not paused) run again next pass.
    for (const ConnPtr &c : lp.pass) {
        c->scheduled = false;
        if (c->fd < 0)
            continue;
        compact(c->rd, c->rdOff);
        flushConn(lp, c);
        if (c->fd >= 0 && (c->armed & EPOLLIN))
            schedule(lp, c);
    }
    lp.pass.clear();
}

void
KvServer::execute(const RequestView &req, std::vector<uint8_t> &out,
                  uint64_t *maxEpoch)
{
    sobs().requests.add(1);
    if (req.key.size() > kMaxKeyBytes) {
        sobs().errors.add(1);
        appendResponse(out, req.id, Status::kTooLarge, req.op, "");
        return;
    }
    switch (req.op) {
    case Op::kGet: {
        sobs().gets.add(1);
        std::string v;
        const bool found = table_.get(req.key, &v);
        appendResponse(out, req.id, found ? Status::kOk : Status::kNotFound,
                       Op::kGet,
                       found ? std::string_view(v) : std::string_view());
        break;
    }
    case Op::kPut: {
        sobs().puts.add(1);
        const mtm::CommitTicket t = table_.putAsync(req.key, req.value);
        *maxEpoch = std::max(*maxEpoch, t.epoch);
        appendResponse(out, req.id, Status::kOk, Op::kPut, "");
        break;
    }
    case Op::kDel: {
        sobs().dels.add(1);
        bool removed = false;
        const mtm::CommitTicket t = table_.delAsync(req.key, &removed);
        *maxEpoch = std::max(*maxEpoch, t.epoch);
        appendResponse(out, req.id, removed ? Status::kOk : Status::kNotFound,
                       Op::kDel, "");
        break;
    }
    case Op::kBatch:
        execBatchOp(req, out, maxEpoch);
        break;
    case Op::kStat: {
        const std::string snap = obs::StatsRegistry::instance().jsonSnapshot();
        appendResponse(out, req.id, Status::kOk, Op::kStat, snap);
        break;
    }
    case Op::kPing:
        appendResponse(out, req.id, Status::kOk, Op::kPing, "");
        break;
    default:
        sobs().errors.add(1);
        appendResponse(out, req.id, Status::kBadRequest, req.op, "");
        break;
    }
}

void
KvServer::execBatchOp(const RequestView &req, std::vector<uint8_t> &out,
                      uint64_t *maxEpoch)
{
    std::vector<BatchOp> ops;
    if (!decodeBatch(req.value, &ops)) {
        sobs().errors.add(1);
        appendResponse(out, req.id, Status::kBadRequest, Op::kBatch, "");
        return;
    }
    if (ops.size() > kMaxBatchOps) {
        sobs().errors.add(1);
        appendResponse(out, req.id, Status::kTooLarge, Op::kBatch, "");
        return;
    }
    for (const BatchOp &o : ops) {
        if ((o.op != Op::kPut && o.op != Op::kDel) ||
            o.key.size() > kMaxKeyBytes) {
            sobs().errors.add(1);
            appendResponse(out, req.id, Status::kBadRequest, Op::kBatch, "");
            return;
        }
    }
    sobs().batches.add(1);

    // All ops in ONE durable transaction: atomic across the batch, one
    // log record, one epoch join.  The caller-side staging protocol
    // (see PHashTable::putTx) brackets the transaction.
    std::string statuses(ops.size(), char(Status::kOk));
    rt_.syncThreadStaging();
    const mtm::CommitTicket t = rt_.atomicAsync([&](mtm::Txn &tx) {
        rt_.resetStaging();
        for (size_t i = 0; i < ops.size(); ++i) {
            if (ops[i].op == Op::kPut) {
                table_.putTx(tx, ops[i].key, ops[i].value);
                statuses[i] = char(Status::kOk);
            } else {
                statuses[i] = table_.delTx(tx, ops[i].key)
                                  ? char(Status::kOk)
                                  : char(Status::kNotFound);
            }
        }
        rt_.clearAllocStaging(tx);
    });
    rt_.noteStagedAsync(t);
    *maxEpoch = std::max(*maxEpoch, t.epoch);
    appendResponse(out, req.id, Status::kOk, Op::kBatch, statuses);
}

void
KvServer::flushConn(Loop &lp, const ConnPtr &c)
{
    while (c->wrOff < c->wr.size()) {
        const ssize_t n = send(c->fd, c->wr.data() + c->wrOff,
                               c->wr.size() - c->wrOff, MSG_NOSIGNAL);
        if (n > 0) {
            c->wrOff += size_t(n);
            sobs().bytes_out.add(uint64_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        closeConn(lp, c);
        return;
    }
    compact(c->wr, c->wrOff);
    rearm(lp, *c);
}

void
KvServer::rearm(Loop &lp, Conn &c)
{
    // Read while the client keeps up with its responses (and the server
    // is not stopping); ask for EPOLLOUT while bytes wait for the socket.
    const size_t unsent = c.wr.size() - c.wrOff;
    const bool read = unsent <= kMaxUnsentBytes &&
                      !stop_.load(std::memory_order_relaxed);
    const uint32_t want = (read ? EPOLLIN : 0u) | (unsent ? EPOLLOUT : 0u);
    if (want == c.armed)
        return;
    epoll_event ev{};
    ev.events = want;
    ev.data.ptr = &c;
    epoll_ctl(lp.epfd, EPOLL_CTL_MOD, c.fd, &ev);
    c.armed = want;
}

void
KvServer::closeConn(Loop &lp, const ConnPtr &c)
{
    if (c->fd < 0)
        return;
    epoll_ctl(lp.epfd, EPOLL_CTL_DEL, c->fd, nullptr);
    close(c->fd);
    c->fd = -1;
    c->rd = {};
    c->wr = {};
    c->rdOff = c->wrOff = 0;
    lp.conns.erase(c.get());
    sobs().conns_closed.add(1);
}

void
KvServer::drainAndClose(Loop &lp)
{
    // Stop listening for new work, then give the responses this loop
    // already released up to two seconds to reach their sockets.
    epoll_ctl(lp.epfd, EPOLL_CTL_DEL, lp.wakeFd, nullptr);
    if (&lp == loops_[0].get())
        epoll_ctl(lp.epfd, EPOLL_CTL_DEL, listenFd_, nullptr);
    std::vector<ConnPtr> conns;
    for (auto &kv : lp.conns)
        conns.push_back(kv.second);
    for (const ConnPtr &c : conns)
        flushConn(lp, c);   // drops EPOLLIN: stop_ is set
    auto unsent = [&] {
        for (auto &kv : lp.conns)
            if (kv.second->wrOff < kv.second->wr.size())
                return true;
        return false;
    };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    epoll_event evs[128];
    while (unsent() && std::chrono::steady_clock::now() < deadline) {
        const int n = epoll_wait(lp.epfd, evs, 128, 10);
        for (int i = 0; i < n; ++i)
            connEvent(lp, static_cast<Conn *>(evs[i].data.ptr),
                      evs[i].events);
    }
    while (!lp.conns.empty())
        closeConn(lp, ConnPtr(lp.conns.begin()->second));
}

} // namespace mnemosyne::server
