/**
 * @file
 * StatsEmitter: the live export path.  A single background thread that
 *
 *  - serves StatsRegistry snapshots, flight-recorder dumps, and the
 *    PhaseLog over a tiny line protocol on a loopback TCP socket
 *    (127.0.0.1:MNEMOSYNE_STATS_PORT), and
 *  - dumps the same payload to MNEMOSYNE_DUMP_FILE (or stderr) when the
 *    process receives SIGUSR2 — the handler only sets an atomic flag;
 *    the emitter thread does the writing.
 *
 * Protocol: one newline-terminated command per request, one line of
 * JSON per response, connection persists until "quit" or client close:
 *
 *   ping    -> {"ok":true,"pid":1234}
 *   stats   -> StatsRegistry::jsonSnapshot()
 *   flight  -> FlightRecorder::json()      ("flight N" caps records)
 *   slow    -> slow-txn trap records, slowest first
 *   phases  -> PhaseLog::json()
 *   reset   -> StatsRegistry::resetAll()  + {"ok":true}
 *
 * The emitter starts automatically from Runtime when
 * MNEMOSYNE_STATS_PORT is set (port 0 binds an ephemeral port; the
 * chosen port is printed to stderr and available from port()), or in
 * dump-only mode (no socket) when only MNEMOSYNE_STATS is set, so
 * SIGUSR2 works without the endpoint.  `tools/mn_stat` is the matching
 * client.
 */

#ifndef MNEMOSYNE_OBS_EMITTER_H_
#define MNEMOSYNE_OBS_EMITTER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/obs.h"

namespace mnemosyne::obs {

class StatsEmitter
{
  public:
    static StatsEmitter &instance();

    /**
     * Start the emitter thread (idempotent).  @p port >= 0 binds a
     * loopback listener (0 picks an ephemeral port); @p port < 0 runs
     * in dump-only mode (SIGUSR2 handling, no socket).  Returns false
     * if the socket could not be bound.
     */
    bool start(int port);
    void stop();

    bool running() const { return running_.load(std::memory_order_acquire); }

    /** Bound TCP port, 0 when no listener. */
    uint16_t port() const { return port_.load(std::memory_order_acquire); }

    /** Ask the emitter thread to write a dump (what SIGUSR2 does). */
    void requestDump() { dumpRequested_.store(true, std::memory_order_release); }

    /** Runtime hook: start from MNEMOSYNE_STATS_PORT / MNEMOSYNE_STATS. */
    static void maybeStartFromEnv();

  private:
    StatsEmitter() = default;

    void run();
    void serveClient(int fd);
    void writeDump();
    std::string respond(const std::string &line, bool &close);

    std::mutex startMu_;
    std::thread thread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stop_{false};
    std::atomic<bool> dumpRequested_{false};
    std::atomic<uint16_t> port_{0};
    int listenFd_ = -1;
};

} // namespace mnemosyne::obs

#endif // MNEMOSYNE_OBS_EMITTER_H_
