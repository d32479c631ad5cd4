/**
 * @file
 * KvServer: the networked durable KV service (DESIGN.md §10).
 *
 * Architecture (run to completion): each of the `workers` threads runs
 * one non-blocking epoll loop that owns its connections outright; loop
 * 0 also accepts and deals new connections round-robin.  A loop pass
 * reads what its sockets hold, then parses up to kFramesPerPass frames
 * per connection and executes them inline: GETs read the table, writes
 * commit as relaxed-durability transactions (PHashTable::putAsync/
 * delAsync, BATCH via Runtime::atomicAsync) that return epoch tickets.
 * Once the pass has executed everything it read, ONE wait on the
 * newest ticket covers all of its commits (epochs retire in order) and
 * seals the open epoch at once: the loop runs the combine round itself
 * unless another loop's round is in flight.  Only then are the pass's
 * responses released to the sockets, so an acked write is durable by
 * construction, and concurrent loops' commits share fence epochs.
 *
 * Responses leave each connection in request order.  A connection
 * whose unsent response bytes pass a fixed cap is not read again until
 * EPOLLOUT drains them: a client that pipelines without reading costs
 * bounded memory and never stalls the loop's other connections.
 *
 * Shutdown: each loop finishes its pass, flushes what it has answered
 * (bounded), and closes its connections; stop() then sync()s and
 * drains the truncator so a clean stop leaves zero unreplayed log.
 */

#ifndef MNEMOSYNE_SERVER_KV_SERVER_H_
#define MNEMOSYNE_SERVER_KV_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ds/phash_table.h"
#include "runtime/runtime.h"
#include "server/kv_protocol.h"

namespace mnemosyne::server {

struct KvServerConfig {
    /** TCP port to bind on 127.0.0.1; 0 picks an ephemeral port. */
    uint16_t port = 0;

    /** Event loops; each executes its connections' requests inline. */
    int workers = 4;

    /** Persistent table backing the service. */
    std::string table = "kv_server_table";
    size_t nbuckets = 1 << 15;
};

class KvServer
{
  public:
    KvServer(Runtime &rt, KvServerConfig cfg = {});
    ~KvServer();

    KvServer(const KvServer &) = delete;
    KvServer &operator=(const KvServer &) = delete;

    /** Bind + spawn the event loops; false on bind failure. */
    bool start();

    /**
     * Graceful stop: every loop finishes its current pass and flushes
     * the responses it released (bounded); requests it had not yet
     * executed are dropped unanswered, like bytes still in a socket.
     * Then sync() and drain the truncator so the log is empty on disk
     * (restart replays nothing).
     */
    void stop();

    uint16_t port() const { return port_; }
    uint64_t requestsServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }
    ds::PHashTable &table() { return table_; }

  private:
    /** One connection, touched only by the loop that owns it. */
    struct Conn {
        int fd = -1;                ///< -1 once closed
        std::vector<uint8_t> rd;    ///< received; [rdOff, end) unparsed
        size_t rdOff = 0;
        std::vector<uint8_t> wr;    ///< answered; [wrOff, end) unsent
        size_t wrOff = 0;
        uint32_t armed = 0;         ///< current epoll interest
        bool scheduled = false;     ///< in its loop's run list
    };
    using ConnPtr = std::shared_ptr<Conn>;

    struct Loop {
        int epfd = -1;
        int wakeFd = -1;            ///< eventfd: new connections, stop
        std::mutex mu;              ///< guards newConns only
        std::vector<ConnPtr> newConns;  ///< dealt by loop 0
        std::unordered_map<Conn *, ConnPtr> conns;
        std::vector<ConnPtr> run;   ///< conns with frames to execute
        std::vector<ConnPtr> pass;  ///< conns the current pass executes
        std::thread thr;
    };

    void loopMain(Loop &lp);
    void connEvent(Loop &lp, Conn *raw, uint32_t events);
    void acceptPending(Loop &lp);
    void addConn(Loop &lp, ConnPtr c);
    void readConn(Loop &lp, const ConnPtr &c);
    void runPass(Loop &lp);
    void execute(const RequestView &req, std::vector<uint8_t> &out,
                 uint64_t *maxEpoch);
    void execBatchOp(const RequestView &req, std::vector<uint8_t> &out,
                     uint64_t *maxEpoch);
    void flushConn(Loop &lp, const ConnPtr &c);
    void rearm(Loop &lp, Conn &c);
    void schedule(Loop &lp, const ConnPtr &c);
    void closeConn(Loop &lp, const ConnPtr &c);
    void drainAndClose(Loop &lp);

    Runtime &rt_;
    KvServerConfig cfg_;
    ds::PHashTable table_;

    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> stop_{false};
    std::atomic<uint64_t> served_{0};
    size_t nextLoop_ = 0;           ///< loop 0's round-robin cursor

    std::vector<std::unique_ptr<Loop>> loops_;
    bool started_ = false;
};

} // namespace mnemosyne::server

#endif // MNEMOSYNE_SERVER_KV_SERVER_H_
