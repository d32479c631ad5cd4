/**
 * @file
 * Group commit: the cross-thread fence-epoch combiner.
 *
 * PR 3 reduced a durable commit to ONE log record and ONE fence; under
 * concurrency the remaining ceiling is that every committing thread
 * still pays its own fence even when neighbors fence the same
 * nanosecond.  The combiner amortizes that fence across threads,
 * flat-combining style:
 *
 *  - A committing thread stages its whole-txn commit record into its
 *    per-thread RAWL with CACHED stores (Rawl::setCachedAppends) — no
 *    flush, no fence — and registers the record's byte range as a
 *    member of the currently OPEN epoch.
 *  - One thread at a time (the first waiter, a joiner that filled the
 *    batch, or the truncator's poll) becomes the combiner: it SEALS the
 *    epoch, appends one epoch marker record to a dedicated marker log,
 *    flushes every member's record lines (the Px86 shared-flush-claim
 *    rule lets its fence retire other threads' cached stores), and
 *    issues ONE fence for the whole batch — the epoch is then FLUSHED
 *    and immediately RETIRED: waiters wake, deferred write-backs run,
 *    truncation tasks are released.
 *
 * Sealing contract: an explicit wait — TxnManager::wait(ticket) or
 * sync() — seals the open epoch at once.  Its caller already gathered
 * the batch it wanted (a KV server loop's whole pass of commits), so a
 * nap would only add latency.  Only a synchronous atomic{} commit
 * lingers: it has no batch of its own, so with more than one live log
 * lease its waiter naps in ~10 us grace steps while peers join the
 * epoch (counted by mtm.epoch_grace_naps).
 *
 * Durability contract (write-ahead preserved under every persist mode,
 * including the cache-eviction model kRandomSubset):
 *
 *  - No member's in-place data is written back before its epoch's fence
 *    retires — otherwise an "evicted" in-place line could become
 *    durable while the unfenced log record is lost, and recovery could
 *    see a torn epoch it cannot undo.  Synchronous commits therefore
 *    wait for retirement BEFORE their write-back; `commit_async`
 *    returns at logical commit and hands its write-back, lock release,
 *    and truncation enqueue to the combiner (Pending).
 *  - Consequently an async transaction's stripe locks stay held until
 *    its epoch retires.  joinAsync marks them retiring with the epoch
 *    (lock_table.h), and a read or write barrier that meets such a
 *    stripe waits for the epoch — waitRetired without linger, which
 *    seals the open epoch at once or waits for the round in flight —
 *    then reads the word again.  It neither aborts nor depends on the
 *    truncator's poll, and it still sees the line's new value only
 *    after the epoch's fence.  Owner-locked stripes (transactions in
 *    flight, synchronous commits) still abort the requester; the
 *    manager's backoff then drives tryAdvance().
 *
 * Recovery rule (whole-epoch all-or-nothing): an epoch is replayed iff
 * its marker survives and EVERY member record either survives wholly or
 * was already consumed (headAbs >= member end, i.e. provably retired);
 * replay takes the largest complete prefix of surviving markers and
 * drops everything after — no torn batch is ever visible.
 */

#ifndef MNEMOSYNE_MTM_GROUP_COMMIT_H_
#define MNEMOSYNE_MTM_GROUP_COMMIT_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "log/rawl.h"
#include "mtm/truncation.h"
#include "mtm/write_set.h"

namespace mnemosyne::mtm {

class EpochCombiner
{
  public:
    /** One committed transaction's record range in its per-thread log. */
    struct Member {
        log::Rawl *log;
        uint64_t fromAbs;   ///< Log position before the record(s).
        uint64_t toAbs;     ///< Log position after the record(s).
        uint64_t ts;        ///< Commit timestamp.
    };

    /** Work a `commit_async` transaction defers to epoch retirement:
     *  in-place write-back (writeBack, txn.h), lock release, and the
     *  truncation task Txn built, which the round gates on its epoch.
     *  Joining marks the lockSlots stripes retiring with the epoch. */
    struct Pending {
        std::vector<WriteSet::Item> items;   ///< Addr-sorted new values.
        std::vector<uintptr_t> lockSlots;    ///< Stripe locks to release.
        uint64_t ts;
        TruncationThread::Task task;
    };

    /**
     * @p marker_log must be a dedicated RAWL slot (streaming appends);
     * @p truncator processes the epoch-gated truncation tasks the
     * combiner produces and drives retirement from its poll.
     */
    EpochCombiner(log::Rawl *marker_log, TruncationThread *truncator,
                  size_t max_batch);

    EpochCombiner(const EpochCombiner &) = delete;
    EpochCombiner &operator=(const EpochCombiner &) = delete;

    /**
     * Register a synchronous commit's record with the open epoch.
     * Returns the epoch id; the caller must waitRetired() on it before
     * writing its values back in place.  May combine inline (batch
     * full, flat-combining: the filling arrival does the work).
     */
    uint64_t joinSync(const Member &m);

    /** Register an async commit and its deferred work, and mark its
     *  stripes retiring with the epoch (LockTable::makeRetiring).
     *  Returns the epoch ticket; the caller returns to the application
     *  at once. */
    uint64_t joinAsync(const Member &m, Pending &&p);

    /**
     * Block until @p epoch has retired.  A free waiter combines the
     * open epoch itself; a waiter parked behind an in-flight round
     * nudges the truncator on every wakeup so a full log can never
     * deadlock the batch (the Rawl::append backoff interaction).
     *
     * With @p linger (synchronous commits only) a free waiter first
     * naps in grace while peers may still join the epoch; without it
     * (explicit wait(ticket)/sync(), and a barrier that met a retiring
     * stripe: the caller has already gathered its batch, or cannot go
     * on without the epoch) the open epoch is sealed at once.
     */
    void waitRetired(uint64_t epoch, bool linger);

    /** Drain every open/in-flight epoch (durability barrier); seals at
     *  once. */
    void sync();

    /**
     * Non-blocking retirement driver for the truncator's poll: seal and
     * retire the open epoch if one exists and no round is in flight.
     * Returns true if a round ran (the epoch-timeout path for async
     * tickets nobody is waiting on).
     */
    bool tryAdvance();

    /** Highest retired epoch (truncation tasks with epoch <= this are
     *  eligible: their fence has happened). */
    uint64_t
    retiredEpoch() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return retired_;
    }

    /**
     * Committer-thread registration, maintained by the manager's log
     * lease lifecycle (first lease acquire / thread-exit recycle).
     * More than one registered committer is THE signal that a lingering
     * (synchronous-commit) grace nap before sealing can grow the batch.
     * Instantaneous in-flight-commit counts cannot serve here: a fencing
     * thread serializes its peers' staging on the SCM context, and on a
     * single-core host peers are only ever preempted at scheduler
     * quanta — both make "someone else is committing RIGHT NOW" nearly
     * unobservable even when eight threads hammer commits.  Lease
     * possession is the stable proxy.
     */
    void
    registerCommitter()
    {
        committers_.fetch_add(1, std::memory_order_relaxed);
    }
    void
    unregisterCommitter()
    {
        committers_.fetch_sub(1, std::memory_order_relaxed);
    }

    /** The truncator consumed one member task of @p epoch. */
    void noteConsumed(uint64_t epoch);

    /** Garbage-collect marker records whose epochs are fully consumed
     *  (every member task processed); called by the truncator. */
    void gcMarkers();

    // Introspection (tests).
    uint64_t
    openEpoch() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return openEpoch_;
    }
    size_t
    openMembers() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return members_.size();
    }
    uint64_t
    rounds() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return rounds_;
    }

  private:
    /** Marker-epoch bookkeeping for GC: one entry per retired epoch
     *  still owning a marker record. */
    struct Outstanding {
        uint64_t epoch;
        size_t remaining;       ///< Member tasks not yet consumed.
        uint64_t markerEnd;     ///< Marker-log position after the record.
    };

    /** Seal + flush + fence + retire the open epoch.  Pre: @p g held,
     *  !combining_, !members_.empty().  Unlocks for the I/O. */
    void combineRound(std::unique_lock<std::mutex> &g);

    log::Rawl *markerLog_;
    TruncationThread *truncator_;
    const size_t maxBatch_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    uint64_t openEpoch_ = 1;    ///< members_ belong to this epoch.
    uint64_t retired_ = 0;
    bool combining_ = false;
    uint64_t rounds_ = 0;
    std::atomic<uint32_t> committers_{0}; ///< Threads holding a log lease.
    uint32_t gracers_ = 0;  ///< Waiters napping in grace (under mu_).
    std::vector<Member> members_;
    std::vector<Pending> pendings_;
    std::deque<Outstanding> outstanding_;

    // Combiner-round scratch, guarded by combining_ (one round at a
    // time; the mutex handoff orders successive rounds' accesses).
    std::vector<uint64_t> markerScratch_;
    std::vector<uintptr_t> lineScratch_;
    std::vector<uint64_t> runScratch_;
};

} // namespace mnemosyne::mtm

#endif // MNEMOSYNE_MTM_GROUP_COMMIT_H_
