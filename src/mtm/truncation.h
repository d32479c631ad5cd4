/**
 * @file
 * Asynchronous log truncation (paper section 5).
 *
 * "Asynchronous truncation retains the log after transaction commit, so
 * the latency of committing is shorter.  A separate log manager thread
 * consumes the log and forces values out to memory before truncating
 * the log."
 *
 * The transaction manager starts this thread only when something can
 * enqueue to it: asynchronous truncation, or group commit (which always
 * truncates through it).  Synchronous truncation without group commit
 * runs no thread.  Each drained batch flushes every distinct dirty line
 * once (hot keys: O(dirty lines) flushes instead of O(txns)), fences
 * once, and then advances each log's head.
 */

#ifndef MNEMOSYNE_MTM_TRUNCATION_H_
#define MNEMOSYNE_MTM_TRUNCATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "log/rawl.h"

namespace mnemosyne::scm {
class ScmContext;
}

namespace mnemosyne::mtm {

class EpochCombiner;

class TruncationThread
{
  public:
    /** One committed transaction's deferred flush work. */
    struct Task {
        log::Rawl *log;
        uint64_t consumeTo;                 ///< Log position after the txn.
        /** Sorted dirty persistent word addresses.  Word (not line)
         *  granularity so the batch drain can merge tasks and account
         *  for exactly how many words the cross-transaction dedup
         *  collapsed before flushing each distinct line once. */
        std::vector<uintptr_t> words;
        /** Fence epoch gating this task: it may only be processed once
         *  the epoch has retired (the record's fence has happened) —
         *  otherwise the truncator could flush the in-place data,
         *  fence, and consume an UNFENCED record, losing the txn if
         *  the data lines then fail to persist.  0 = ungated.  Per-log
         *  task epochs are monotone in enqueue order, so gating the
         *  queue's prefix never starves an eligible task behind an
         *  ineligible one of the same log. */
        uint64_t epoch = 0;
    };

    /** Starts the worker thread. */
    TruncationThread();
    ~TruncationThread();

    /** Install the combiner the worker polls for epoch retirement
     *  (tryAdvance — the epoch-timeout path) and notifies of consumed
     *  member tasks (marker GC).  Call before any gated enqueue.
     *  Atomic: the worker thread is already polling when this runs
     *  during TxnManager construction. */
    void
    setCombiner(EpochCombiner *c)
    {
        combiner_.store(c, std::memory_order_release);
    }

    void enqueue(Task task);

    /**
     * Wake the worker immediately.  Called from a producer stalled on a
     * full log (Rawl space waiter): unlike enqueue(), which batches
     * wakeups to stay off the commit critical path, a stalled producer
     * is already blocked and wants the backlog drained now.
     */
    void nudge() { cv_.notify_one(); }

    /** Block until every enqueued task has been processed. */
    void drain();

    /** Suspend/resume processing (deterministic crash tests and the
     *  idle-duty-cycle study of Figure 6 use this). */
    void pause();
    void resume();

    uint64_t processed() const { return processed_; }
    size_t backlog() const;

  private:
    /** Backlog that forces an eager worker wakeup (log-space pressure). */
    static constexpr size_t kEagerWakeBacklog = 48;
    /** Worker poll interval; it doubles as the epoch timeout that
     *  retires async tickets nobody waits on. */
    static constexpr uint64_t kPollUs = 100;

    void run();

    /**
     * The SCM context of the thread that created this truncator,
     * installed as the worker thread's context override.  A sweep
     * worker's runtime (and its truncation thread) must write through
     * that worker's private emulator, not the process-wide one.
     */
    scm::ScmContext *parentCtx_;

    std::atomic<EpochCombiner *> combiner_{nullptr};

    std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable idleCv_;
    std::deque<Task> queue_;
    bool stop_ = false;
    bool busy_ = false;
    bool paused_ = false;
    uint64_t processed_ = 0;
    std::thread worker_;
};

} // namespace mnemosyne::mtm

#endif // MNEMOSYNE_MTM_TRUNCATION_H_
