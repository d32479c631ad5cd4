/**
 * @file
 * Durable memory transactions (paper section 5).
 *
 * The transaction system implements lazy version management with
 * write-ahead redo logging and eager conflict detection with
 * encounter-time locking, in the style of TinySTM:
 *
 *  - New values written during the transaction are buffered in a
 *    volatile open-addressed write set (write_set.h).
 *  - Each lock stripe covers one cache line (lock_table.h), and both
 *    barriers split their byte range into per-line runs.  A write run
 *    takes its line's stripe once and buffers the run's words.  A read
 *    run is one timestamp-validated snapshot of the words it asks for:
 *    version load, relaxed loads, version re-check, lazy snapshot
 *    extension, one read-set entry.  Buffered values are looked up only
 *    when the transaction holds the stripe itself — the only case in
 *    which it can have written into the line.  The read set keeps one
 *    entry per stripe, so validation scans unique lines, not raw reads.
 *  - Commit stages the transaction's redo — every buffered word in the
 *    reserved persistent address range plus the commit timestamp — as
 *    ONE compact (v2) commit record (redo_codec.h: the values plus a
 *    varint run-length address stream) appended to the per-thread
 *    persistent RAWL, and issues ONE fence (the tornbit log
 *    needs no commit-record fence pair).  Torn-append atomicity of the
 *    RAWL makes the single record the atomicity point: recovery either
 *    sees the whole transaction or none of it.  The new values are then
 *    written back in place, locks are released at the commit timestamp,
 *    and the log is truncated either synchronously (flush every written
 *    line, fence, truncate) or asynchronously by the log-manager thread.
 *  - Transactions whose redo exceeds the log's largest record spill
 *    earlier chunks as plain (addr, val) pair records and fold the rest
 *    into the commit record; recovery buffers pair records until the
 *    commit record arrives (and discards them if it never does).
 *
 * In the paper, Intel's STM compiler instruments every load and store
 * inside an `atomic { }` block with calls into this system; here the
 * instrumentation calls are the public read()/write() barriers, and
 * TxnManager::atomic() provides the retry loop the compiler would emit.
 */

#ifndef MNEMOSYNE_MTM_TXN_H_
#define MNEMOSYNE_MTM_TXN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "log/rawl.h"
#include "mtm/lock_table.h"
#include "mtm/truncation.h"
#include "mtm/write_set.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace mnemosyne::mtm {

class TxnManager;

/**
 * Write @p n addr-sorted items back in place, coalescing contiguous
 * words into one cached store per run (@p run is scratch).  Both the
 * committing thread and the epoch combiner (deferred `commit_async`
 * work) write back through this.
 */
inline void
writeBack(scm::ScmContext &c, const WriteSet::Item *items, size_t n,
          std::vector<uint64_t> &run)
{
    for (size_t i = 0; i < n;) {
        run.clear();
        run.push_back(items[i].val);
        size_t j = i + 1;
        while (j < n && items[j].key == items[j - 1].key + 8)
            run.push_back(items[j++].val);
        c.store(reinterpret_cast<void *>(items[i].key), run.data(),
                run.size() * sizeof(uint64_t));
        i = j;
    }
}

/** Thrown internally on conflict; TxnManager::atomic() retries. */
struct TxnConflict {
    const char *why;
};

/** Control-record tags in the redo log (values below the persistent
 *  address range, so they cannot collide with logged addresses).
 *
 *  Record shapes recovery understands (recovery.cc):
 *    [kTagCommit, ts, a0, v0, a1, v1, ...]  one whole transaction
 *    [a0, v0, a1, v1, ...]                  spilled chunk of a large txn
 *    [kTagAbort]                            spilled chunks are dead
 *    [kTagCommitEpoch, ts, a0, v0, ...]     group-commit txn: replayed
 *                                           only if its epoch's marker
 *                                           proves the epoch fenced
 *    [kTagEpoch, e, n, (slot, to, ts)*n]    epoch marker (marker log)
 *
 *  Compact (v2) commit records carry their tag in byte 0 of the first
 *  word (kTagCommitV2 / kTagCommitEpochV2, redo_codec.h) and compress
 *  the address column into a varint run-length stream; replay
 *  semantics match their v1 twins.  Commit writes only v2 records and
 *  spilled pair chunks; the v1 commit shapes are decode-only.
 */
enum LogTag : uint64_t {
    kTagCommit = 1,
    kTagAbort = 2,
    kTagCommitEpoch = 3,
    kTagEpoch = 4,
};

class Txn
{
  public:
    /** Transactional store of @p len bytes (any alignment). */
    void write(void *addr, const void *src, size_t len);

    /** Transactional load of @p len bytes (any alignment). */
    void read(void *dst, const void *addr, size_t len);

    template <typename T>
    void
    writeT(T *addr, const T &val)
    {
        write(addr, &val, sizeof(T));
    }

    template <typename T>
    T
    readT(const T *addr)
    {
        T v;
        read(&v, addr, sizeof(T));
        return v;
    }

    uint64_t id() const { return id_; }
    size_t writeSetWords() const { return writeWords_.size(); }

  private:
    friend class TxnManager;

    explicit Txn(TxnManager &mgr) : mgr_(mgr) {}

    void begin(uint64_t id, log::Rawl *log);
    /** Commit; returns the epoch ticket (0 = durable on return: read-
     *  only, volatile-only, or the combiner is off). */
    uint64_t commit();
    void abort(const char *why);      ///< rollback() + throw TxnConflict.
    void rollback();                  ///< Release locks, drop buffers.
    /** Epilogue of every end — abort, read-only, async and sync
     *  commit: close the flight record, reset, count the outcome. */
    void finish(uint32_t flight_flags, uint64_t ts, obs::ShardedCounter &n);

    void readRun(uint8_t *dst, uintptr_t addr, size_t len);
    void recordRead(LockTable::Word &lock, uint64_t seen);
    void acquire(LockTable::Word &lock);
    /** Wait for the epoch of a retiring lock word (lock_table.h). */
    void awaitRetired(uint64_t word);
    void validateOrAbort(const char *why);
    void extend();
    void stageAndAppendRedo(uint64_t ts, bool epoch_mode);
    /** The truncation task for the record just appended: its log end
     *  and its persistent words, gated on @p epoch (0 = ungated). */
    TruncationThread::Task truncationTask(uint64_t epoch) const;

    TxnManager &mgr_;
    log::Rawl *log_ = nullptr;
    uint64_t id_ = 0;
    uint64_t startTs_ = 0;
    uint64_t truncSample_ = 0;      ///< Sync-trunc histogram sampling.
    uint64_t commitSample_ = 0;     ///< mtm.commit_ns HDR sampling.
    int depth_ = 0;                 ///< Flat nesting.
    bool active_ = false;
    bool asyncCommit_ = false;      ///< commit_async: defer durability
                                    ///< (and write-back) to the epoch.

    /** Flight-recorder frame for the attempt in flight (nullptr when
     *  the recorder is disabled); owned by the recorder. */
    obs::FlightFrame *flight_ = nullptr;

    /** flight_ when this attempt is sampled for span detail, else
     *  nullptr — the barrier/commit instrumentation sites test this one
     *  pointer, so unsampled transactions take the same null-check
     *  fast path as a disabled recorder. */
    obs::FlightFrame *flightDetail_ = nullptr;

    /** Volatile buffer of new values (lazy version management):
     *  open-addressed map, word address -> new value. */
    WriteSet writeWords_;

    /** Read set for timestamp validation: lock stripe -> first observed
     *  version, one entry per stripe (deduplicated at insert), so a run
     *  of reads inside one line adds one entry. */
    DenseMap<uint64_t> readSet_;

    /** Locks held: lock slot -> version to restore on abort. */
    DenseMap<uint64_t> lockPrev_;

    // Reusable commit-path scratch.  With synchronous truncation and no
    // group commit, commit allocates nothing once these reach their
    // high-water capacity; otherwise it allocates the truncation task's
    // word vector, and a commit_async commit hands sortScratch_'s buffer
    // (plus the lock-slot vector and the task) to the combiner
    // (EpochCombiner::Pending).
    std::vector<WriteSet::Item> sortScratch_;   ///< Write set, addr-sorted.
    std::vector<WriteSet::Item> persistScratch_; ///< Persistent subset.
    std::vector<uintptr_t> lineScratch_;        ///< Distinct dirty lines.
    std::vector<uint64_t> runScratch_;          ///< Contiguous write-back run.
    std::vector<uint64_t> redoScratch_;         ///< Staged log record.
};

} // namespace mnemosyne::mtm

#endif // MNEMOSYNE_MTM_TXN_H_
