/**
 * @file
 * Transaction flight recorder: per-thread lock-free rings of fixed-size
 * span records capturing each transaction's causal timeline —
 * begin -> read/write barriers -> log staging -> RAWL append -> fence ->
 * write-back -> truncation -> commit — with per-span durations and
 * per-transaction fence/flush/log-byte counts.
 *
 * Cost model (the recorder must not perturb what it measures):
 *
 *  - disabled: one relaxed load + branch per transaction;
 *  - enabled, unsampled transaction: a handful of plain loads/stores,
 *    plus two tickNow() reads (raw TSC) on the 1-in-trap_stride
 *    transactions the slow-txn trap times (default 16) — on hosts
 *    where a TSC read is expensive (virtualized TSC stalls real code
 *    for 30-60 ns per read) timing literally every transaction would
 *    alone exceed a 5% overhead budget; no frame reset, no
 *    clock_gettime, no per-barrier counting;
 *  - enabled, sampled transaction (1 in sample_every): full span
 *    timeline, two TSC reads per instrumented span, published to the
 *    thread's ring at commit/abort.
 *
 * Rings are strictly per-thread (claimed via a thread_local pointer,
 * recycled through a free list on thread exit), so writers never
 * contend.  Each slot is a seqlock over relaxed atomic words: a dump
 * racing the owner re-reads the slot's sequence and discards records
 * caught mid-write, so snapshots from any thread are safe (and
 * TSan-clean) at any time.
 *
 * The slow-txn trap is a small always-on "worst offenders" table: any
 * *timed* transaction (sampled, or unsampled and hit by the 1-in-
 * trap_stride timing rotation) whose total latency exceeds the current
 * table minimum is captured, so recurring tail events survive even at
 * 1/1024 sampling.  Unsampled trap entries carry total latency but zero
 * span and count detail (that bookkeeping is what sampling pays for).
 * Set trap_stride to 1 to time — and trap-check — every transaction
 * when overhead is no concern.
 *
 * The recorder is also the process's event source for Chrome trace
 * export: chromeJson() renders every ring and slow-trap record as one
 * "X" (complete) event on its thread's track, with span durations and
 * counts as args, led by thread_name metadata from
 * setCurrentThreadName().  Load the file at ui.perfetto.dev or
 * chrome://tracing.
 *
 * Toggles: MNEMOSYNE_FLIGHT=1 enables, MNEMOSYNE_FLIGHT_SAMPLE=N sets
 * the sampling period (default 64; implies enable),
 * MNEMOSYNE_FLIGHT_RING=N sets per-thread ring capacity (default 256),
 * MNEMOSYNE_FLIGHT_TRAP_STRIDE=N times 1 in N unsampled transactions
 * for the slow trap (default 16; 0 disables trap timing), and
 * MNEMOSYNE_TRACE_FILE=f writes chromeJson() to f at Runtime shutdown
 * (implies enable).
 */

#ifndef MNEMOSYNE_OBS_FLIGHT_RECORDER_H_
#define MNEMOSYNE_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace mnemosyne::obs {

/** Timed phases of one durable transaction. */
enum class Span : uint8_t {
    kReadBarrier = 0, ///< read() barriers (incl. write-set probes).
    kWriteBarrier,    ///< write() barriers (lock acquire + buffer).
    kValidate,        ///< Commit-time validation + write-set sort.
    kLogStage,        ///< Building the redo record (tornbit staging).
    kLogAppend,       ///< Rawl::append, including full-log stalls.
    kLogFence,        ///< The durability fence (Rawl::flush).
    kWriteBack,       ///< In-place write-back of new values.
    kTruncate,        ///< Sync truncation / async-truncation enqueue.
    kSpanCount
};

const char *spanName(Span s);

/** Record flags. */
enum : uint32_t {
    kFlightCommitted = 1u << 0,
    kFlightAborted = 1u << 1,
    kFlightReadOnly = 1u << 2,
    kFlightSampled = 1u << 3, ///< Span detail present.
    kFlightSlow = 1u << 4,    ///< Captured by the slow-txn trap.
};

/** One transaction's flight record (fixed-size, ring slot payload). */
struct FlightRecord {
    uint64_t txn_id = 0;
    uint64_t begin_ns = 0;  ///< nowNs()-domain begin timestamp.
    uint64_t total_ns = 0;  ///< begin -> commit/abort return.
    uint64_t commit_ts = 0; ///< Global commit timestamp (0 if none).
    uint32_t span_ns[size_t(Span::kSpanCount)] = {}; ///< Saturating u32.
    uint32_t reads = 0;      ///< Word-read barriers.
    uint32_t writes = 0;     ///< Word-write barriers.
    uint32_t redo_words = 0; ///< Persistent (addr,val) payload words.
    uint32_t log_bytes = 0;  ///< Bytes appended to the RAWL (framed).
    uint32_t fences = 0;     ///< Fences issued by this txn's commit.
    uint32_t flushes = 0;    ///< Line flushes issued by this txn.
    uint32_t tid = 0;        ///< obs::threadOrdinal() of the owner.
    uint32_t flags = 0;
};

/** Number of 64-bit words a FlightRecord packs into (seqlock payload). */
inline constexpr size_t kFlightRecordWords =
    (sizeof(FlightRecord) + 7) / 8;

/**
 * Thread-local working area for the transaction in flight.  The txn
 * layer accumulates raw tick deltas and counts here; endTxn() converts
 * to nanoseconds and publishes.
 */
struct FlightFrame {
    uint64_t begin_tick = 0;
    uint64_t begin_ns = 0;
    uint64_t txn_id = 0;
    uint64_t span_ticks[size_t(Span::kSpanCount)] = {};
    uint32_t reads = 0;
    uint32_t writes = 0;
    uint32_t redo_words = 0;
    uint32_t log_bytes = 0;
    uint32_t fences = 0;
    uint32_t flushes = 0;
    bool sampled = false;
    bool timed = false;        ///< begin_tick valid (sampled or trap).
    uint32_t txn_counter = 0;  ///< Per-thread sampling phase.
    uint32_t trap_counter = 0; ///< Per-thread trap-timing phase.
};

namespace detail {
/** The calling thread's frame, cached as a constant-initialized POD
 *  thread_local so the per-transaction hooks reach it without the
 *  guarded-TLS wrapper a destructor-bearing thread_local costs;
 *  beginTxnSlow() populates it on a thread's first transaction. */
extern constinit thread_local FlightFrame *gFlightFrame;
} // namespace detail

class FlightRecorder
{
  public:
    static constexpr size_t kDefaultRingSlots = 256;
    static constexpr size_t kSlowSlots = 16;
    static constexpr uint32_t kDefaultTrapStride = 16;

    /** Immortal singleton: thread-exit hooks may run after static
     *  destructors, so the recorder is never destroyed. */
    static FlightRecorder &instance();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void setEnabled(bool on);

    /** Record full span detail for 1 in @p n transactions (n >= 1);
     *  0 disables sampling but keeps the slow-txn trap timing. */
    void setSampleEvery(uint32_t n);
    uint32_t sampleEvery() const
    {
        return sampleEvery_.load(std::memory_order_relaxed);
    }

    /** Time 1 in @p n unsampled transactions for the slow-txn trap
     *  (1 = every transaction, 0 = trap timing off).  Sampled
     *  transactions are always timed. */
    void setTrapStride(uint32_t n);
    uint32_t trapStride() const
    {
        return trapStride_.load(std::memory_order_relaxed);
    }

    /**
     * Hot-path hook at transaction begin.  Returns nullptr when the
     * recorder is disabled; otherwise the calling thread's frame, with
     * frame->sampled deciding whether span detail is collected.  The
     * common case — enabled, unsampled — stays inline: two relaxed
     * loads, two counter bumps, and at most one TSC read.
     */
    FlightFrame *
    beginTxn(uint64_t txn_id)
    {
        if (!enabled())
            return nullptr;
        FlightFrame *f = detail::gFlightFrame;
        if (f == nullptr)
            return beginTxnSlow(txn_id); // first txn on this thread
        const uint32_t n = sampleEvery_.load(std::memory_order_relaxed);
        if (n != 0 && ++f->txn_counter >= n)
            return beginTxnSampled(f, txn_id);
        f->sampled = false;
        f->txn_id = txn_id;
        // Unsampled: time 1 in trap_stride transactions for the
        // slow-txn trap.  A TSC read costs ~18 ns on some virtualized
        // hosts, so timing every transaction is not free enough to do
        // unconditionally.
        const uint32_t stride =
            trapStride_.load(std::memory_order_relaxed);
        f->timed = stride != 0 && ++f->trap_counter >= stride;
        if (f->timed) {
            f->trap_counter = 0;
            f->begin_tick = tickNow();
        }
        return f;
    }

    /** Hot-path hook at transaction end (commit return or rollback).
     *  @p end_flags is kFlightCommitted / kFlightAborted / etc.
     *  Untimed transactions return after one branch. */
    void
    endTxn(FlightFrame *f, uint32_t end_flags, uint64_t commit_ts)
    {
        if (f == nullptr || !f->timed)
            return;
        endTxnTimed(f, end_flags, commit_ts);
    }

    /** Surviving records from every thread's ring, oldest first per
     *  thread; safe against concurrent writers (mid-write slots are
     *  dropped). */
    std::vector<FlightRecord> snapshot() const;

    /** The calling thread's ring only (crash forensics). */
    std::vector<FlightRecord> threadSnapshot() const;

    /** Slow-txn trap contents, slowest first. */
    std::vector<FlightRecord> slowest() const;

    /** Records ever published to rings (including overwritten). */
    uint64_t published() const
    {
        return published_.load(std::memory_order_relaxed);
    }

    /** Reset the calling thread's ring. */
    void clearThread();

    /** Reset every ring and the slow trap (quiescent points only). */
    void clearAll();

    /** One-line JSON dump: {"records":[...],"slow":[...],...}.  With
     *  @p max_records > 0 only the newest that many ring records. */
    std::string json(size_t max_records = 0) const;

    static std::string recordsJson(const std::vector<FlightRecord> &recs);

    /** Label the calling thread in Chrome exports ("worker-3",
     *  "async-trunc").  Unnamed threads export as "thread <ordinal>". */
    void setThreadName(const std::string &name);

    /** Chrome trace-event JSON ({"traceEvents":[...]}): process_name and
     *  thread_name metadata, then one "X" event per ring record and per
     *  slow-trap record not already in a ring. */
    std::string chromeJson() const;

  private:
    struct Slot {
        std::atomic<uint64_t> seq{0}; ///< Even = stable, odd = writing.
        std::atomic<uint64_t> w[kFlightRecordWords] = {};
    };

    struct Ring {
        explicit Ring(size_t slots);
        std::vector<Slot> slots;
        std::atomic<uint64_t> head{0};
        std::atomic<uint32_t> tid{0};
        void publish(const FlightRecord &rec);
        std::vector<FlightRecord> snapshot() const;
        void clear();
    };

    FlightRecorder();
    FlightFrame *beginTxnSlow(uint64_t txn_id);
    FlightFrame *beginTxnSampled(FlightFrame *f, uint64_t txn_id);
    void endTxnTimed(FlightFrame *f, uint32_t end_flags,
                     uint64_t commit_ts);
    Ring *threadRing();
    void returnRing(Ring *r); ///< Thread-exit: park for reuse.
    void maybeTrap(FlightRecord &rec);

    std::atomic<bool> enabled_{false};
    std::atomic<uint32_t> sampleEvery_{64};
    std::atomic<uint32_t> trapStride_{kDefaultTrapStride};
    std::atomic<uint64_t> published_{0};
    size_t ringSlots_ = kDefaultRingSlots;

    mutable std::mutex ringsMu_;
    std::vector<Ring *> rings_;     ///< Every ring ever created.
    std::vector<Ring *> freeRings_; ///< Parked by exited threads.

    mutable std::mutex slowMu_;
    std::vector<FlightRecord> slow_;     ///< Up to kSlowSlots.
    std::atomic<uint64_t> slowMin_{0};   ///< Admission threshold.

    mutable std::mutex namesMu_;
    std::map<uint32_t, std::string> threadNames_; ///< By thread ordinal.

    friend struct FlightThreadState;
};

/** Scoped span timer: no-op unless @p f is a sampled frame. */
class SpanScope
{
  public:
    SpanScope(FlightFrame *f, Span s)
        : f_(f && f->sampled ? f : nullptr), s_(s),
          t0_(f_ ? tickNow() : 0)
    {
    }

    ~SpanScope()
    {
        if (f_)
            f_->span_ticks[size_t(s_)] += tickNow() - t0_;
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    FlightFrame *f_;
    Span s_;
    uint64_t t0_;
};

/** Convenience: name the calling thread for trace exports. */
inline void
setCurrentThreadName(const std::string &name)
{
    FlightRecorder::instance().setThreadName(name);
}

} // namespace mnemosyne::obs

#endif // MNEMOSYNE_OBS_FLIGHT_RECORDER_H_
