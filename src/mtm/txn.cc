#include "mtm/txn.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "mtm/group_commit.h"
#include "mtm/redo_codec.h"
#include "mtm/truncation.h"
#include "mtm/txn_manager.h"
#include "obs/hdr_histogram.h"
#include "obs/obs.h"
#include "scm/scm.h"

namespace mnemosyne::mtm {

namespace {

obs::Counter &
redoWordsCtr()
{
    static obs::Counter c{"mtm.redo_words"};
    return c;
}

/** Log words the compact (v2) encoding saved versus what the v1 record
 *  shape would have appended for the same write set — the bandwidth
 *  win, measured at the source. */
obs::Counter &
wordsSavedCtr()
{
    static obs::Counter c{"rawl.record_words_saved"};
    return c;
}

/** Touch at load so the key appears in every snapshot, also before the
 *  first commit (live schema checks rely on presence). */
[[maybe_unused]] obs::Counter &gWordsSavedEager = wordsSavedCtr();

/** Barrier waits on a retiring stripe: each one is a conflict with a
 *  committed `commit_async` transaction that waited for its epoch
 *  instead of aborting. */
obs::Counter &
retiringWaitsCtr()
{
    static obs::Counter c{"mtm.retiring_waits"};
    return c;
}

/** Touch at load, like the mtm.epoch_* keys: present with group commit
 *  off too. */
[[maybe_unused]] obs::Counter &gRetiringWaitsEager = retiringWaitsCtr();

obs::HdrHistogram &
syncTruncHist()
{
    static obs::HdrHistogram h{"mtm.sync_trunc_ns"};
    return h;
}

/** Update-transaction commit() latency, sampled 1 in 16 (the two TSC
 *  reads are cheap, but a 2M txn/s workload still shouldn't pay them
 *  every commit); HDR-bucketed so p99 moves are visible at ~3%. */
obs::HdrHistogram &
commitLatencyHist()
{
    static obs::HdrHistogram h{"mtm.commit_ns"};
    return h;
}

/** Touch at load so the mtm.commit_ns.* keys appear in every snapshot,
 *  including processes whose few commits never hit the 1-in-16 sample
 *  (live clients can then rely on the key existing). */
[[maybe_unused]] obs::HdrHistogram &gCommitHistEager = commitLatencyHist();

} // namespace

void
Txn::begin(uint64_t id, log::Rawl *log)
{
    id_ = id;
    log_ = log;
    startTs_ = mgr_.clock_.load(std::memory_order_acquire);
    depth_ = 1;
    active_ = true;
    flight_ = obs::FlightRecorder::instance().beginTxn(id_);
    flightDetail_ = flight_ != nullptr && flight_->sampled ? flight_ : nullptr;
}

void
Txn::finish(uint32_t flight_flags, uint64_t ts, obs::ShardedCounter &n)
{
    obs::FlightRecorder::instance().endTxn(flight_, flight_flags, ts);
    flight_ = nullptr;
    flightDetail_ = nullptr;
    writeWords_.clear();
    readSet_.clear();
    lockPrev_.clear();
    depth_ = 0;
    active_ = false;
    asyncCommit_ = false;
    n.add(1);
}

void
Txn::rollback()
{
    // Release every lock, restoring its pre-acquisition version, and
    // discard buffered updates.  Nothing reaches the log before commit,
    // so an aborted transaction leaves no trace to invalidate (paper
    // section 5; the staged-redo scheme makes aborts log-free).
    for (const auto &it : lockPrev_) {
        reinterpret_cast<LockTable::Word *>(it.key)->store(
            it.val, std::memory_order_release);
    }
    finish(obs::kFlightAborted, /*commit_ts=*/0, mgr_.nAborts_);
}

void
Txn::abort(const char *why)
{
    rollback();
    throw TxnConflict{why};
}

void
Txn::extend()
{
    // Lazy snapshot extension: the snapshot can move forward to `now` if
    // every stripe read so far is still valid at its recorded version.
    const uint64_t now = mgr_.clock_.load(std::memory_order_acquire);
    validateOrAbort("snapshot extension failed");
    startTs_ = now;
}

void
Txn::validateOrAbort(const char *why)
{
    for (const auto &it : readSet_) {
        auto *lock = reinterpret_cast<LockTable::Word *>(it.key);
        const uint64_t cur = lock->load(std::memory_order_acquire);
        if (cur == it.val)
            continue;
        if (LockTable::ownedBy(cur, id_)) {
            const uint64_t *prev = lockPrev_.find(it.key);
            if (prev && *prev == it.val)
                continue;
        }
        abort(why);
    }
}

void
Txn::recordRead(LockTable::Word &lock, uint64_t seen)
{
    // One read-set entry per lock stripe.  A repeat read of a stripe
    // whose version moved since the first read means another commit
    // slipped between them; commit-time validation of the first entry
    // would abort anyway, so fail fast here.
    auto [val, inserted] = readSet_.insert(
        reinterpret_cast<uintptr_t>(&lock), seen);
    if (!inserted && *val != seen)
        abort("stripe version changed between reads");
}

void
Txn::awaitRetired(uint64_t word)
{
    // The stripe's holder has committed and only waits for its fence
    // epoch; no abort can make it let go sooner.  Seal that epoch (or
    // wait for the round in flight) and let the caller read the word
    // again.
    retiringWaitsCtr().add(1);
    mgr_.combiner_->waitRetired(LockTable::epoch(word), /*linger=*/false);
}

void
Txn::acquire(LockTable::Word &lock)
{
    uint64_t cur = lock.load(std::memory_order_acquire);
    for (;;) {
        if (LockTable::isLocked(cur)) {
            if (LockTable::ownedBy(cur, id_))
                return; // already mine
            if (LockTable::isRetiring(cur)) {
                awaitRetired(cur);
                cur = lock.load(std::memory_order_acquire);
                continue;
            }
            // Eager conflict detection: the encounter-time policy aborts
            // the requester; the atomic() wrapper backs off and retries.
            abort("write-write conflict");
        }
        if (lock.compare_exchange_weak(cur, LockTable::makeLocked(id_),
                                       std::memory_order_acq_rel)) {
            lockPrev_.insert(reinterpret_cast<uintptr_t>(&lock), cur);
            return;
        }
    }
}

void
Txn::readRun(uint8_t *dst, uintptr_t addr, size_t len)
{
    // [addr, addr + len) lies inside one cache line, so one stripe
    // covers it: one version snapshot and one read-set entry serve the
    // whole run.
    const uintptr_t first = addr & ~uintptr_t(7);
    const size_t nwords = (addr + len - 1 - first) / 8 + 1;
    uint64_t vals[scm::kCacheLineSize / 8] = {};
    auto load = [](uintptr_t w) {
        return std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t *>(w))
            .load(std::memory_order_relaxed);
    };
    auto &lock = mgr_.locks_.lockFor(reinterpret_cast<void *>(addr));
    for (int attempt = 0;;) {
        const uint64_t v1 = lock.load(std::memory_order_acquire);
        if (LockTable::isLocked(v1)) {
            if (LockTable::isRetiring(v1)) {
                awaitRetired(v1);
                continue; // a wait is not an unstable read
            }
            if (!LockTable::ownedBy(v1, id_))
                abort("read-write conflict");
            // I hold the stripe, so memory is stable under my lock and
            // my buffered words are the only newer values.  Holding it
            // is also the only way I can have written into this line.
            for (size_t i = 0; i < nwords; ++i) {
                const uintptr_t w = first + 8 * i;
                const uint64_t *buf = writeWords_.find(w);
                vals[i] = buf ? *buf : load(w);
            }
            break;
        }
        // Seqlock-style optimistic read: a concurrent committer may be
        // writing the line back while we load it, and the version
        // re-check catches that.  The loads go through relaxed atomics
        // (free on x86-64) so the race is defined behaviour; the device
        // side writes with matching relaxed atomics (scm deviceCopy).
        // Only the words asked for are loaded, never the rest of the
        // line.
        for (size_t i = 0; i < nwords; ++i)
            vals[i] = load(first + 8 * i);
        const uint64_t v2 = lock.load(std::memory_order_acquire);
        if (v1 != v2) {
            // A concurrent writer slipped in; retry the read.
            if (++attempt == 4)
                abort("unstable read");
            continue;
        }
        if (LockTable::version(v1) > startTs_)
            extend();
        recordRead(lock, v1);
        break;
    }
    std::memcpy(dst, reinterpret_cast<const uint8_t *>(vals) + (addr - first),
                len);
}

void
Txn::write(void *addr, const void *src, size_t len)
{
    assert(active_);
    obs::SpanScope span(flightDetail_, obs::Span::kWriteBarrier);
    if (flightDetail_)
        flightDetail_->writes += uint32_t((len + 7) / 8);
    // Lazy version management: per line run, acquire the stripe once
    // and buffer the run's words.  The redo log sees nothing until
    // commit, when the whole write set is staged as one record
    // (stageAndAppendRedo).
    const auto *bytes = static_cast<const uint8_t *>(src);
    uintptr_t a = reinterpret_cast<uintptr_t>(addr);
    const uintptr_t end = a + len;
    while (a < end) {
        const uintptr_t run_end =
            std::min(end, (a | (scm::kCacheLineSize - 1)) + 1);
        acquire(mgr_.locks_.lockFor(reinterpret_cast<void *>(a)));
        while (a < run_end) {
            const uintptr_t word = a & ~uintptr_t(7);
            const size_t off = a - word;
            const size_t n = std::min<size_t>(run_end - a, 8 - off);
            if (n == 8) {
                uint64_t val;
                std::memcpy(&val, bytes, 8);
                writeWords_.put(word, val);
            } else {
                // Sub-word store: merge into the current word value,
                // which is stable in memory under the stripe lock.
                auto [val, fresh] = writeWords_.insert(word, 0);
                if (fresh)
                    *val = *reinterpret_cast<const uint64_t *>(word);
                std::memcpy(reinterpret_cast<uint8_t *>(val) + off, bytes, n);
            }
            a += n;
            bytes += n;
        }
    }
}

void
Txn::read(void *dst, const void *addr, size_t len)
{
    assert(active_);
    obs::SpanScope span(flightDetail_, obs::Span::kReadBarrier);
    if (flightDetail_)
        flightDetail_->reads += uint32_t((len + 7) / 8);
    auto *out = static_cast<uint8_t *>(dst);
    uintptr_t a = reinterpret_cast<uintptr_t>(addr);
    const uintptr_t end = a + len;
    while (a < end) {
        const size_t n =
            std::min(end, (a | (scm::kCacheLineSize - 1)) + 1) - a;
        readRun(out, a, n);
        a += n;
        out += n;
    }
}

void
Txn::stageAndAppendRedo(uint64_t ts, bool epoch_mode)
{
    // Per-transaction log staging: the whole redo — commit timestamp
    // plus every persistent buffered word — travels to the RAWL as ONE
    // compact (v2) record (redo_codec.h), so the header word and tornbit
    // restaging are paid once per transaction instead of once per store.
    // commit() filled persistScratch_ with the addr-sorted persistent
    // items.
    //
    // Under group commit the record is epoch-tagged and left UNFENCED:
    // the epoch combiner flushes its lines and fences the whole batch
    // (the log itself staged the words with cached stores, see
    // Rawl::setCachedAppends).  Recovery then replays the txn only if
    // its epoch's marker proves the batch fence happened.
    const size_t n = persistScratch_.size();
    redoWordsCtr().add(2 * n);

    // Records are additionally capped well below a large log's capacity:
    // the tornbit restaging buffer stays cache-sized, and a chunk is
    // never so large that the truncator cannot free space between spills.
    constexpr size_t kMaxStagedWords = 4096;
    const size_t max_rec = std::min(
        log::Rawl::maxRecordWords(log_->capacityWords()), kMaxStagedWords);
    assert(max_rec >= 4 && "log slot too small for any transaction");
    size_t appended = 0;
    {
        obs::SpanScope append_span(flightDetail_, obs::Span::kLogAppend);
        const uintptr_t va_base = mgr_.rl_.manager().vaBase();
        const WriteSet::Item *items = persistScratch_.data();
        // Hot path: encode straight away (single pass) and check the
        // size after — almost no transaction is oversized.
        redo::encodeV2(va_base, ts, epoch_mode, items, n, redoScratch_);
        size_t start = 0;
        if (redoScratch_.size() > max_rec) [[unlikely]] {
            // Oversized transaction: spill leading chunks as plain
            // (addr, val) pair records until the compact tail fits one
            // record.  Recovery buffers pair records until the commit
            // record arrives (and discards them if it never does).
            size_t rec_words = redo::encodedWordsV2(va_base, ts, items, n);
            while (rec_words > max_rec) {
                const size_t chunk =
                    std::min((max_rec - 2) / 2, n - start - 1);
                redoScratch_.clear();
                for (size_t i = start; i < start + chunk; ++i) {
                    redoScratch_.push_back(items[i].key);
                    redoScratch_.push_back(items[i].val);
                }
                log_->append(redoScratch_.data(), redoScratch_.size());
                appended += redoScratch_.size();
                start += chunk;
                rec_words = redo::encodedWordsV2(va_base, ts, items + start,
                                                 n - start);
            }
            redo::encodeV2(va_base, ts, epoch_mode, items + start,
                           n - start, redoScratch_);
        }
        log_->append(redoScratch_.data(), redoScratch_.size());
        appended += redoScratch_.size();
        // The v1 shape appends exactly 2 + 2n words for any spill split;
        // the difference is the bandwidth this txn saved.
        if (appended < 2 + 2 * n)
            wordsSavedCtr().add(2 + 2 * n - appended);
    }
    if (flightDetail_) {
        flightDetail_->redo_words += uint32_t(2 * n);
        flightDetail_->log_bytes += uint32_t(appended * sizeof(uint64_t));
    }
    if (epoch_mode)
        return; // the epoch fence is the durability point
    // Durability point: one fence thanks to the tornbit RAWL.
    {
        obs::SpanScope fence_span(flightDetail_, obs::Span::kLogFence);
        log_->flush();
    }
    if (flightDetail_)
        flightDetail_->fences += 1;
}

TruncationThread::Task
Txn::truncationTask(uint64_t epoch) const
{
    std::vector<uintptr_t> words;
    words.reserve(persistScratch_.size());
    for (const auto &it : persistScratch_)
        words.push_back(it.key);
    return TruncationThread::Task{log_, log_->tailAbs(), std::move(words),
                                  epoch};
}

uint64_t
Txn::commit()
{
    assert(active_ && depth_ == 1);

    if (writeWords_.empty()) {
        // Read-only transactions are consistent by construction of the
        // incremental validation; nothing to persist.
        finish(obs::kFlightCommitted | obs::kFlightReadOnly,
               /*commit_ts=*/0, mgr_.nReadonly_);
        return 0;
    }

    // Commit-operation latency (update transactions), sampled 1 in 16
    // into the mtm.commit_ns HDR histogram: cheap TSC reads, converted
    // to ns off the hot path.
    const uint64_t commit_t0 =
        obs::enabled() && (++commitSample_ & 15) == 0 ? obs::tickNow() : 0;

    // Total order over transactions: the global timestamp counter,
    // stored with the commit record for replay ordering (section 5).
    // The timestamp is taken BEFORE validation so that any conflicting
    // writer serializes strictly before or after this transaction.
    const uint64_t ts =
        mgr_.clock_.fetch_add(1, std::memory_order_acq_rel) + 1;
    {
        obs::SpanScope validate_span(flightDetail_, obs::Span::kValidate);
        if (startTs_ != ts - 1)
            validateOrAbort("commit validation failed");
    }

    {
        // Staging: sort the write set once into reusable scratch (the
        // sorted order drives line coalescing for flushes and
        // write-back runs) and build the redo record.
        obs::SpanScope stage_span(flightDetail_, obs::Span::kLogStage);
        sortScratch_.assign(writeWords_.begin(), writeWords_.end());
        std::sort(sortScratch_.begin(), sortScratch_.end(),
                  [](const WriteSet::Item &a, const WriteSet::Item &b) {
                      return a.key < b.key;
                  });
        lineScratch_.clear();
        persistScratch_.clear();
        for (const auto &it : sortScratch_) {
            if (mgr_.rl_.isPersistent(reinterpret_cast<void *>(it.key))) {
                persistScratch_.push_back(it);
                const uintptr_t line = it.key & ~uintptr_t(63);
                if (lineScratch_.empty() || lineScratch_.back() != line)
                    lineScratch_.push_back(line);
            }
        }
    }
    const bool logged = !persistScratch_.empty();
    EpochCombiner *comb = logged ? mgr_.combiner_.get() : nullptr;
    // commit_async under the combiner: logical commit now, an epoch
    // ticket for the caller.
    const bool deferred = comb != nullptr && asyncCommit_;
    uint64_t epoch = 0;

    if (logged) {
        const uint64_t from_abs = log_->tailAbs();
        stageAndAppendRedo(ts, comb != nullptr);
        if (comb) {
            const EpochCombiner::Member member{log_, from_abs,
                                               log_->tailAbs(), ts};
            if (deferred) {
                // The in-place write-back AND lock release are deferred
                // to the combiner at epoch retirement — writing back
                // earlier would let cache eviction persist in-place data
                // ahead of its (unfenced) log record, breaking the
                // whole-epoch atomicity guarantee.  Joining the epoch
                // marks the stripes retiring, so until it retires a
                // conflicting barrier waits for it instead of aborting.
                EpochCombiner::Pending p;
                p.items = std::move(sortScratch_);
                p.lockSlots.reserve(lockPrev_.size());
                for (const auto &it : lockPrev_)
                    p.lockSlots.push_back(uintptr_t(it.key));
                p.ts = ts;
                p.task = truncationTask(/*epoch=*/0); // combiner gates it
                epoch = comb->joinAsync(member, std::move(p));
                sortScratch_.clear();
            } else {
                // Synchronous commit under group commit: wait for the
                // epoch fence (issued once, by whichever thread
                // combines) BEFORE the write-back — write-ahead again.
                // The wait is what the caller pays instead of a private
                // flush+fence; it lingers in grace so concurrent sync
                // committers share the epoch.
                obs::SpanScope fence_span(flightDetail_,
                                          obs::Span::kLogFence);
                epoch = comb->joinSync(member);
                comb->waitRetired(epoch, /*linger=*/true);
            }
        }
    }

    if (!deferred) {
        auto &c = log_->scm();
        {
            // Write back the new values in place (lazy version
            // management), then release the locks at the commit
            // timestamp.
            obs::SpanScope wb_span(flightDetail_, obs::Span::kWriteBack);
            writeBack(c, sortScratch_.data(), sortScratch_.size(),
                      runScratch_);
            for (const auto &it : lockPrev_) {
                reinterpret_cast<LockTable::Word *>(it.key)->store(
                    LockTable::makeVersion(ts), std::memory_order_release);
            }
        }
        if (logged) {
            obs::SpanScope trunc_span(flightDetail_, obs::Span::kTruncate);
            if (comb || mgr_.cfg_.truncation == Truncation::kAsync) {
                // Off the critical path.  Group commit always truncates
                // through the worker thread: a synchronous flush+fence
                // here would hand back the very fence the epoch just
                // amortized away.  Its task is gated on the epoch
                // (already retired here, so immediately eligible).
                mgr_.truncator_->enqueue(truncationTask(epoch));
            } else {
                // Synchronous truncation: force new values to memory
                // during commit, then drop the whole per-thread log.
                // The head advance is ordered after this fence and
                // rides the next one (losing it only means an idempotent
                // replay).  The latency histogram samples 1 in 16
                // commits: two clock reads per commit cost more than the
                // truncation itself on the emulator fast lane.
                const uint64_t t0 =
                    obs::enabled() && (++truncSample_ & 15) == 0
                        ? obs::nowNs()
                        : 0;
                for (uintptr_t line : lineScratch_)
                    c.flush(reinterpret_cast<const void *>(line));
                c.fence();
                log_->consumeTo(log::Rawl::Cursor{log_->tailAbs()},
                                /*do_fence=*/false);
                if (t0)
                    syncTruncHist().record(obs::nowNs() - t0);
                if (flightDetail_) {
                    flightDetail_->flushes += uint32_t(lineScratch_.size());
                    flightDetail_->fences += 1;
                }
            }
        }
    }

    if (commit_t0)
        commitLatencyHist().recordAlways(
            obs::ticksToNs(obs::tickNow() - commit_t0));
    finish(obs::kFlightCommitted, ts, mgr_.nCommits_);
    return deferred ? epoch : 0; // 0: durable on return
}

} // namespace mnemosyne::mtm
