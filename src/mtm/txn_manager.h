/**
 * @file
 * The transaction manager: global clock, lock table, per-thread logs,
 * truncation policy, and recovery (paper section 5).
 */

#ifndef MNEMOSYNE_MTM_TXN_MANAGER_H_
#define MNEMOSYNE_MTM_TXN_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "log/log_manager.h"
#include "mtm/lock_table.h"
#include "mtm/txn.h"
#include "obs/obs.h"
#include "region/region_table.h"

namespace mnemosyne::mtm {

class TruncationThread;
class EpochCombiner;

/** When modified data is forced to SCM and the log truncated. */
enum class Truncation {
    kSync,      ///< At commit: flush every written line, fence, truncate.
    kAsync,     ///< By the log-manager thread, off the critical path.
};

struct TxnConfig {
    Truncation truncation = Truncation::kSync;
    size_t log_slots = 16;          ///< Max threads with live logs.
    size_t log_slot_bytes = 1 << 20;
    /** log2 of the lock-table size; each lock covers the 64-byte
     *  cache lines that hash to it (lock_table.h). */
    size_t lock_bits = 20;

    /** Group commit: batch committing threads' records into fence
     *  epochs — ONE fence per epoch instead of one per transaction
     *  (group_commit.h).  Truncation always runs through the worker
     *  thread when the combiner is on; the `truncation` setting is
     *  then ignored.  Unwaited async tickets retire within the
     *  worker's poll interval (TruncationThread::kPollUs). */
    bool group_commit = false;
    size_t epoch_max_batch = 64;    ///< Seal when this many members join.
};

/**
 * Relaxed-durability handle from atomicAsync(): the transaction has
 * committed logically; it is durable once its fence epoch retires.
 * epoch == 0 means there is nothing to wait for (read-only or
 * volatile-only transaction, or the combiner is off — the commit was
 * durable on return).
 */
struct CommitTicket {
    uint64_t epoch = 0;
    bool pending() const { return epoch != 0; }
};

struct TxnStats {
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t readonly_commits = 0;
    uint64_t retries = 0;           ///< Backoff/retry rounds in atomic().
    uint64_t replayed_txns = 0;     ///< Completed txns redone at recovery.
};

class TxnManager
{
  public:
    /**
     * Create the transaction system over @p rl's log region (created on
     * first run), replaying any completed-but-not-flushed transactions
     * left in the per-thread logs by a crash.
     */
    TxnManager(region::RegionLayer &rl, TxnConfig cfg = {});
    ~TxnManager();

    TxnManager(const TxnManager &) = delete;
    TxnManager &operator=(const TxnManager &) = delete;

    /**
     * Run @p fn inside a durable memory transaction — the `atomic { }`
     * construct.  @p fn receives the transaction and must perform all
     * persistent accesses through its read/write barriers; it may be
     * re-executed on conflict.  Nested atomic blocks flatten into the
     * outermost one; a conflict restarts the whole flat transaction.
     */
    template <typename Fn>
    void
    atomic(Fn &&fn)
    {
        for (int attempt = 0;; ++attempt) {
            Txn &tx = begin();
            const bool outer = (tx.depth_ == 1);
            try {
                fn(tx);
                commit(tx);
                return;
            } catch (const TxnConflict &) {
                // The txn is already rolled back; only the outermost
                // level may retry.
                if (!outer)
                    throw;
                nRetries_.add(1);
                backoff(attempt);
            } catch (...) {
                // User exception: roll the whole transaction back at the
                // outermost level and propagate.
                if (outer && tx.active_)
                    tx.rollback();
                else if (!outer)
                    --tx.depth_;
                throw;
            }
        }
    }

    /**
     * Run @p fn as a relaxed-durability transaction (`commit_async`):
     * the commit is LOGICAL on return — values are locked-in and the
     * transaction cannot abort anymore — and becomes durable when its
     * fence epoch retires (at the latest one epoch timeout later).
     * Wait on the returned ticket, or sync(), for durability.  With
     * the combiner off this degrades to a normal durable commit and
     * the ticket is already retired.
     *
     * Note the write-ahead consequence: the in-place write-back and
     * stripe-lock release also happen at retirement, so a conflicting
     * transaction that reaches one of the stripes in the window waits
     * in its barrier for the epoch, which it seals at once (the stripe
     * is marked retiring, lock_table.h); it does not abort.  Tickets
     * are process-local and remain valid after the committing thread
     * exits (epochs are manager state, and log leases are recycled,
     * not torn down, on thread exit).
     */
    template <typename Fn>
    CommitTicket
    atomicAsync(Fn &&fn)
    {
        for (int attempt = 0;; ++attempt) {
            Txn &tx = begin();
            const bool outer = (tx.depth_ == 1);
            if (outer)
                tx.asyncCommit_ = true;
            try {
                fn(tx);
                return CommitTicket{commit(tx)};
            } catch (const TxnConflict &) {
                if (!outer)
                    throw;
                nRetries_.add(1);
                backoff(attempt);
            } catch (...) {
                if (outer && tx.active_)
                    tx.rollback();
                else if (!outer)
                    --tx.depth_;
                throw;
            }
        }
    }

    /** Block until @p t's epoch has retired (no-op for retired/empty
     *  tickets).  Seals the open epoch at once, without a grace nap. */
    void wait(CommitTicket t);

    /** Durability barrier: drain every open and in-flight epoch, so all
     *  previously returned tickets are retired.  Seals at once. */
    void sync();

    /** Begin (or flat-nest into) this thread's transaction. */
    Txn &begin();

    /** Commit the current transaction (or pop one nesting level).
     *  Returns the epoch ticket (0 = durable on return). */
    uint64_t commit(Txn &tx);

    /** The calling thread's active transaction, or nullptr. */
    Txn *current();

    TxnStats stats() const;

    region::RegionLayer &regions() { return rl_; }
    LockTable &locks() { return locks_; }

    /** Wait until the async truncation thread has drained all logs. */
    void drainTruncation();

    /** Suspend/resume the async truncation thread (crash tests and the
     *  Figure 6 idle-duty-cycle study). */
    void pauseTruncation();
    void resumeTruncation();

    /** Committed transactions whose logs are not yet truncated. */
    size_t truncationBacklog() const;

    /**
     * Return a per-thread log lease to this manager's free pool; called
     * by the thread-local lease destructor on thread exit.  The slot is
     * NOT released from the persistent LogManager — queued async
     * truncation tasks may still reference the Rawl, and an unconsumed
     * suffix must survive a crash — it is simply handed to the next
     * thread that needs a log, so thread churn no longer exhausts slots.
     */
    void recycleLog(log::Rawl *log);

    /** Logs currently parked in the free pool (tests). */
    size_t recycledLogCount() const;

    /** The fence-epoch combiner, or nullptr when group_commit is off
     *  (tests and the truncator's retirement poll). */
    EpochCombiner *combiner() { return combiner_.get(); }

  private:
    friend class Txn;

    void backoff(int attempt);
    log::Rawl *threadLog();
    log::Rawl *acquireLog();
    size_t recoverLogs();

    region::RegionLayer &rl_;
    TxnConfig cfg_;
    LockTable locks_;
    // Every committing writer bumps clock_ and every begin bumps
    // nextTxnId_; cache-line-align both so the two hottest words in the
    // manager never ping-pong on one line (with each other or with the
    // cold members around them).
    alignas(64) std::atomic<uint64_t> clock_{0};
    alignas(64) std::atomic<uint64_t> nextTxnId_{1};
    std::unique_ptr<log::LogManager> logs_;
    /** Declared before truncator_: the truncator's worker polls the
     *  combiner (tryAdvance), so it must be destroyed FIRST (members
     *  destroy in reverse declaration order). */
    std::unique_ptr<EpochCombiner> combiner_;
    /** Null unless something can enqueue to it: async truncation or
     *  group commit. */
    std::unique_ptr<TruncationThread> truncator_;
    const uint64_t mgrId_;

    /** Leases returned by exited threads, ready for reuse. */
    mutable std::mutex freeMu_;
    std::vector<log::Rawl *> freeLogs_;

    // Per-thread-sharded so hot commit/abort paths never contend on one
    // cache line, and stats() sums relaxed per-shard loads (no torn
    // 64-bit reads, unlike the earlier single-atomic scheme on 32-bit).
    obs::ShardedCounter nCommits_, nAborts_, nReadonly_, nRetries_;
    uint64_t nReplayed_ = 0;
    uint64_t statsSourceToken_ = 0;
};

} // namespace mnemosyne::mtm

#endif // MNEMOSYNE_MTM_TXN_MANAGER_H_
