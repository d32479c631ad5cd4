#include "mtm/group_commit.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "mtm/lock_table.h"
#include "mtm/truncation.h"
#include "mtm/txn.h"
#include "obs/hdr_histogram.h"
#include "obs/obs.h"
#include "scm/scm.h"

namespace mnemosyne::mtm {

namespace {

struct EpochCounters {
    obs::Counter seals{"mtm.epoch_seals"};
    obs::Counter members{"mtm.epoch_members"};
    obs::Counter async_commits{"mtm.epoch_async_commits"};
    /** Record lines shared between members of one epoch and flushed
     *  once instead of per member (adjacent records in a slot share
     *  boundary lines; the Px86 shared-flush-claim rule makes the
     *  single flush correct for every producer's cached stores). */
    obs::Counter lines_deduped{"mtm.epoch_lines_deduped"};
    /** Members per sealed epoch — the fence-amortization factor. */
    obs::HdrHistogram batch{"mtm.epoch_batch"};
    /** Sync-commit wait for epoch retirement (the fence is on another
     *  thread's clock now; this is what the caller actually pays). */
    obs::HdrHistogram wait_ns{"mtm.epoch_wait_ns"};
    /** ~10 us grace naps a lingering (synchronous-commit) waiter took
     *  before sealing; explicit waits never add to it. */
    obs::Counter grace_naps{"mtm.epoch_grace_naps"};
};

EpochCounters &
ctrs()
{
    static EpochCounters c;
    return c;
}

/** Touch at load so the mtm.epoch_* keys appear in every snapshot even
 *  when the combiner is off (live schema checks rely on presence). */
[[maybe_unused]] EpochCounters &gEpochCtrsEager = ctrs();

} // namespace

EpochCombiner::EpochCombiner(log::Rawl *marker_log,
                             TruncationThread *truncator, size_t max_batch)
    : markerLog_(marker_log), truncator_(truncator),
      maxBatch_(max_batch ? max_batch : 1)
{
}

uint64_t
EpochCombiner::joinSync(const Member &m)
{
    std::unique_lock<std::mutex> g(mu_);
    members_.push_back(m);
    const uint64_t e = openEpoch_;
    if (gracers_ > 0)
        cv_.notify_all(); // wake gracers: the batch just grew
    if (members_.size() >= maxBatch_ && !combining_)
        combineRound(g); // flat combining: the filling arrival works
    return e;
}

uint64_t
EpochCombiner::joinAsync(const Member &m, Pending &&p)
{
    std::unique_lock<std::mutex> g(mu_);
    members_.push_back(m);
    const uint64_t e = openEpoch_;
    // Mark the stripes retiring under mu_: the round that releases them
    // takes pendings_ under mu_ too, so it always finds the mark written.
    for (uintptr_t slot : p.lockSlots)
        reinterpret_cast<LockTable::Word *>(slot)->store(
            LockTable::makeRetiring(e), std::memory_order_release);
    pendings_.push_back(std::move(p));
    ctrs().async_commits.add(1);
    if (gracers_ > 0)
        cv_.notify_all();
    if (members_.size() >= maxBatch_ && !combining_)
        combineRound(g);
    return e;
}

void
EpochCombiner::waitRetired(uint64_t epoch, bool linger)
{
    std::unique_lock<std::mutex> g(mu_);
    if (retired_ >= epoch)
        return;
    const uint64_t t0 = obs::enabled() ? obs::nowNs() : 0;
    bool graced = !linger;
    while (retired_ < epoch) {
        assert(epoch <= openEpoch_ && "ticket from the future");
        if (!combining_ && !members_.empty()) {
            // Grace before the seal (synchronous commits only): with
            // more than one committer thread alive, linger while the
            // batch is still growing so peers can stage and join this
            // epoch — that is where a sync commit's fence amortization
            // comes from.  The loop seals early once every registered
            // committer is aboard (nobody left to wait for) and gives
            // up after two quiet naps, so a stalled peer costs tens of
            // microseconds, never unbounded latency.  A lone committer
            // and every explicit wait skip this and seal immediately.
            const size_t quorum = std::min<size_t>(
                maxBatch_, committers_.load(std::memory_order_relaxed));
            if (!graced && quorum > 1) {
                graced = true;
                ++gracers_;
                size_t last = members_.size();
                int quiet = 0;
                while (retired_ < epoch && !combining_ &&
                       members_.size() < quorum) {
                    ctrs().grace_naps.add(1);
                    cv_.wait_for(g, std::chrono::microseconds(10));
                    if (members_.size() > last) {
                        last = members_.size();
                        quiet = 0;
                    } else if (++quiet >= 2) {
                        break;
                    }
                }
                --gracers_;
                continue; // re-evaluate: someone may have combined
            }
            // Free waiter: become the combiner.  The open epoch holds
            // (at least) our member, so one round retires our ticket.
            combineRound(g);
            continue;
        }
        // Parked behind an in-flight round (or an empty epoch that a
        // racing round already swept up).  The combiner may itself be
        // stalled in Rawl::append on a FULL log, whose drain needs the
        // truncator — keep nudging it on every wakeup so log-space
        // pressure can never deadlock the batch.
        if (truncator_)
            truncator_->nudge();
        cv_.wait_for(g, std::chrono::microseconds(200));
    }
    if (t0)
        ctrs().wait_ns.record(obs::nowNs() - t0);
}

void
EpochCombiner::sync()
{
    uint64_t target;
    {
        std::lock_guard<std::mutex> g(mu_);
        if (!members_.empty())
            target = openEpoch_;            // open epoch holds work
        else if (combining_)
            target = openEpoch_ - 1;        // round in flight
        else
            return;                         // nothing pending
    }
    waitRetired(target, /*linger=*/false);
}

bool
EpochCombiner::tryAdvance()
{
    std::unique_lock<std::mutex> g(mu_, std::try_to_lock);
    if (!g.owns_lock() || combining_ || members_.empty())
        return false;
    combineRound(g);
    return true;
}

void
EpochCombiner::combineRound(std::unique_lock<std::mutex> &g)
{
    assert(g.owns_lock() && !combining_ && !members_.empty());
    const uint64_t e = openEpoch_++;
    combining_ = true;
    std::vector<Member> members;
    std::vector<Pending> pendings;
    members.swap(members_);
    pendings.swap(pendings_);
    g.unlock();

    ctrs().seals.add(1);
    ctrs().members.add(members.size());
    ctrs().batch.record(members.size());

    uint64_t marker_end = 0;
    try {
        auto &c = markerLog_->scm();

        // 1. Epoch marker: [kTagEpoch, e, n, (slot, to_abs, ts) x n],
        //    streamed (wtstore) into the dedicated marker log — OUR
        //    fence below retires our own stream.
        markerScratch_.clear();
        markerScratch_.push_back(kTagEpoch);
        markerScratch_.push_back(e);
        markerScratch_.push_back(members.size());
        for (const auto &m : members) {
            markerScratch_.push_back(m.log->slotId());
            markerScratch_.push_back(m.toAbs);
            markerScratch_.push_back(m.ts);
        }
        markerLog_->append(markerScratch_.data(), markerScratch_.size());
        marker_end = markerLog_->tailAbs();

        // 2. Flush every member's record lines.  The records were
        //    staged with cached stores, so these flush claims are
        //    SHARED: our fence retires them on the producers' behalf.
        lineScratch_.clear();
        for (const auto &m : members)
            m.log->linesFor(m.fromAbs, m.toAbs, lineScratch_);
        std::sort(lineScratch_.begin(), lineScratch_.end());
        const size_t gathered = lineScratch_.size();
        lineScratch_.erase(
            std::unique(lineScratch_.begin(), lineScratch_.end()),
            lineScratch_.end());
        ctrs().lines_deduped.add(gathered - lineScratch_.size());
        for (uintptr_t line : lineScratch_)
            c.flush(reinterpret_cast<const void *>(line));

        // 3. THE fence — one per epoch.  Marker and every member record
        //    become durable together; this is the epoch's atomicity
        //    point.
        markerLog_->flush();

        // 4. Publish durability so consumers may read the records.
        for (const auto &m : members)
            m.log->publishFlushed(m.toAbs);

        // 5. Deferred async work, now on the safe side of the fence:
        //    in-place write-back (coalesced runs), lock release at the
        //    commit timestamp, then the truncation task.  Order matters
        //    twice over — write-back strictly after the record's fence
        //    (write-ahead), and the task enqueued only after the
        //    write-back, so the truncator can never drop a record whose
        //    data is still nowhere.
        for (auto &p : pendings) {
            writeBack(c, p.items.data(), p.items.size(), runScratch_);
            p.task.epoch = e;
            truncator_->enqueue(std::move(p.task));
        }
    } catch (const scm::CrashNow &) {
        // Crash injection fired mid-round: the machine is dying, stop
        // touching SCM.  Volatile bookkeeping still completes below so
        // in-process waiters (the crash harness's own thread) unblock;
        // recovery decides the epoch's fate from the media alone.
    }

    // Stripe-lock release is VOLATILE state and must happen even when a
    // crash hook cut the round short mid-I/O above — otherwise surviving
    // in-process threads (the harness itself) spin forever on locks
    // owned by a dead epoch.  On the normal path this still orders after
    // every member's in-place write-back, so a reader that observes the
    // new version also observes the new data.
    for (const auto &p : pendings) {
        for (uintptr_t slot : p.lockSlots) {
            reinterpret_cast<LockTable::Word *>(slot)->store(
                LockTable::makeVersion(p.ts), std::memory_order_release);
        }
    }

    g.lock();
    retired_ = e;
    ++rounds_;
    outstanding_.push_back(Outstanding{e, members.size(), marker_end});
    combining_ = false;
    cv_.notify_all();
}

void
EpochCombiner::noteConsumed(uint64_t epoch)
{
    std::lock_guard<std::mutex> g(mu_);
    for (auto &o : outstanding_) {
        if (o.epoch == epoch) {
            assert(o.remaining > 0);
            --o.remaining;
            return;
        }
    }
    assert(false && "consumed task of unknown epoch");
}

void
EpochCombiner::gcMarkers()
{
    uint64_t consume_to = 0;
    {
        std::lock_guard<std::mutex> g(mu_);
        while (!outstanding_.empty() && outstanding_.front().remaining == 0) {
            consume_to = outstanding_.front().markerEnd;
            outstanding_.pop_front();
        }
    }
    // Every member record of the popped prefix is consumed, which
    // implies its epoch's in-place data is flushed and fenced — the
    // markers carry no remaining recovery obligation.  The head advance
    // rides a later fence; losing it only resurrects fully-retired
    // markers, whose replay is idempotent.
    if (consume_to != 0 && consume_to > markerLog_->headAbs())
        markerLog_->consumeTo(log::Rawl::Cursor{consume_to},
                              /*do_fence=*/false);
}

} // namespace mnemosyne::mtm
