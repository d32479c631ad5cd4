#include "mtm/truncation.h"

#include <algorithm>

#include "mtm/group_commit.h"
#include "obs/flight_recorder.h"
#include "obs/hdr_histogram.h"
#include "scm/scm.h"

namespace mnemosyne::mtm {

namespace {

obs::HdrHistogram &
asyncTruncHist()
{
    static obs::HdrHistogram h{"mtm.async_trunc_ns"};
    return h;
}

struct TruncCounters {
    /** Dirty words the cross-transaction batch merge collapsed (words
     *  enqueued minus distinct words flushed) — the hot-key dedup win. */
    obs::Counter words_deduped{"trunc.writeback_words_deduped"};
    /** Cache lines the truncator actually flushed. */
    obs::Counter lines_flushed{"trunc.lines_flushed"};
};

TruncCounters &
tctrs()
{
    static TruncCounters c;
    return c;
}

/** Touch at load so the trunc.* keys appear in every snapshot (live
 *  schema checks rely on presence). */
[[maybe_unused]] TruncCounters &gTruncCtrsEager = tctrs();

} // namespace

TruncationThread::TruncationThread()
    : parentCtx_(&scm::ctx()), worker_([this] { run(); })
{
}

TruncationThread::~TruncationThread()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
}

void
TruncationThread::enqueue(Task task)
{
    size_t backlog;
    {
        std::lock_guard<std::mutex> g(mu_);
        queue_.push_back(std::move(task));
        backlog = queue_.size();
    }
    // Do not wake the worker for every commit: on few-core hosts an
    // eager notify preempts the committing thread and puts the flush
    // right back on its critical path.  The worker polls on a short
    // timer and drains during the application's idle periods; only a
    // large backlog (log-space pressure) forces a wakeup.
    if (backlog >= kEagerWakeBacklog)
        cv_.notify_one();
}

void
TruncationThread::drain()
{
    std::unique_lock<std::mutex> g(mu_);
    idleCv_.wait(g, [this] {
        return paused_ || (queue_.empty() && !busy_);
    });
}

void
TruncationThread::pause()
{
    std::lock_guard<std::mutex> g(mu_);
    paused_ = true;
    cv_.notify_all();
    idleCv_.notify_all();
}

void
TruncationThread::resume()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        paused_ = false;
    }
    cv_.notify_all();
}

size_t
TruncationThread::backlog() const
{
    std::lock_guard<std::mutex> g(const_cast<std::mutex &>(mu_));
    return queue_.size();
}

void
TruncationThread::run()
{
    scm::setThreadCtx(parentCtx_);
    obs::setCurrentThreadName("async-trunc");
    std::vector<Task> batch;
    std::vector<log::Rawl *> consumed_logs;
    std::vector<uintptr_t> word_scratch;
    for (;;) {
        batch.clear();
        bool stopping = false;
        bool paused_now = false;
        {
            std::unique_lock<std::mutex> g(mu_);
            cv_.wait_for(g, std::chrono::microseconds(kPollUs), [this] {
                return stop_ || (!paused_ && !queue_.empty());
            });
            if (stop_ && (queue_.empty() || paused_))
                return;
            stopping = stop_;
            paused_now = paused_;
            if (!paused_ && !queue_.empty()) {
                // Take the ELIGIBLE prefix: tasks whose gating epoch
                // has retired (its fence happened).  Per-log task
                // epochs are monotone in enqueue order, so stopping at
                // the first gated task never strands an eligible one.
                // At stop time the gate is bypassed — the owner retires
                // every epoch (combiner sync) before tearing us down.
                EpochCombiner *comb =
                    combiner_.load(std::memory_order_acquire);
                const uint64_t retired = (comb && !stop_)
                                             ? comb->retiredEpoch()
                                             : ~uint64_t(0);
                while (!queue_.empty() &&
                       queue_.front().epoch <= retired) {
                    batch.push_back(std::move(queue_.front()));
                    queue_.pop_front();
                }
                busy_ = !batch.empty();
            }
        }

        if (!batch.empty()) {
            // Force the committed values out to SCM, then release the
            // log space.  The order matters: a redo record may only
            // disappear once its in-place data is durable.  The batch
            // pays ONE fence — flush every task's lines, fence, then
            // advance each log's head to its furthest consumed
            // position (per-log enqueue order is consume order, so the
            // last task per log carries the furthest position).
            try {
                const uint64_t t0 = obs::enabled() ? obs::nowNs() : 0;
                auto &c = scm::ctx();
                // Cross-transaction dedup: merge every task's dirty word
                // set and flush each distinct line ONCE per batch.
                // Correct under every persist mode because the truncator
                // never writes data — the committing threads already
                // wrote the words back in commit-ts order (last writer
                // won in memory), so one flush of the merged line
                // persists exactly the latest value, and the single
                // fence below still orders every flush before every
                // consumeTo (write-ahead: no record is dropped before
                // its data is durable).
                word_scratch.clear();
                for (const auto &t : batch)
                    word_scratch.insert(word_scratch.end(), t.words.begin(),
                                        t.words.end());
                const size_t enqueued = word_scratch.size();
                std::sort(word_scratch.begin(), word_scratch.end());
                word_scratch.erase(
                    std::unique(word_scratch.begin(), word_scratch.end()),
                    word_scratch.end());
                tctrs().words_deduped.add(enqueued - word_scratch.size());
                size_t flushed = 0;
                uintptr_t prev_line = 0;
                for (uintptr_t w : word_scratch) {
                    const uintptr_t line = w & ~uintptr_t(63);
                    if (flushed != 0 && line == prev_line)
                        continue;
                    c.flush(reinterpret_cast<const void *>(line));
                    ++flushed;
                    prev_line = line;
                }
                tctrs().lines_flushed.add(flushed);
                c.fence();
                consumed_logs.clear();
                for (size_t i = batch.size(); i-- > 0;) {
                    log::Rawl *log = batch[i].log;
                    if (std::find(consumed_logs.begin(),
                                  consumed_logs.end(),
                                  log) != consumed_logs.end())
                        continue;
                    consumed_logs.push_back(log);
                    log->consumeTo(log::Rawl::Cursor{batch[i].consumeTo},
                                   /*do_fence=*/false);
                }
                if (EpochCombiner *comb =
                        combiner_.load(std::memory_order_acquire)) {
                    for (const auto &t : batch)
                        if (t.epoch != 0)
                            comb->noteConsumed(t.epoch);
                    comb->gcMarkers();
                }
                if (t0)
                    asyncTruncHist().record(obs::nowNs() - t0);
            } catch (const scm::CrashNow &) {
                // A crash-injection hook fired on this thread: the
                // machine is "dying"; stop touching SCM and let the
                // test's crash() + recovery take over.
            }

            {
                std::lock_guard<std::mutex> g(mu_);
                busy_ = false;
                processed_ += batch.size();
                if (queue_.empty())
                    idleCv_.notify_all();
            }
        }

        // Retirement driver: the poll interval doubles as the epoch
        // timeout, so an async ticket nobody waits on still retires
        // promptly.  Skipped while paused — crash tests need a
        // quiescent truncator to keep persistence-event sequences
        // deterministic.
        EpochCombiner *comb = combiner_.load(std::memory_order_acquire);
        if (comb && !stopping && !paused_now)
            comb->tryAdvance();
    }
}

} // namespace mnemosyne::mtm
