#include "mtm/txn_manager.h"

#include <array>
#include <cassert>
#include <chrono>
#include <random>
#include <thread>
#include <unordered_map>

#include "mtm/group_commit.h"
#include "mtm/recovery.h"
#include "mtm/truncation.h"
#include "obs/stats_registry.h"
#include "scm/scm.h"

namespace mnemosyne::mtm {

namespace {

/** Upper bound of a conflict backoff's randomized delay. */
constexpr uint64_t kMaxBackoffUs = 50;

uint64_t
nextMgrId()
{
    static std::atomic<uint64_t> gen{0};
    return gen.fetch_add(1, std::memory_order_relaxed) + 1;
}

/**
 * Live managers by id (ids are never reused).  A thread-exit lease
 * destructor must not touch a manager that died first; the registry
 * mutex is held across the lookup AND the recycle call, so a manager
 * blocked in ~TxnManager on this mutex cannot finish dying mid-recycle.
 * Allocated immortally: thread_local destructors can run during process
 * teardown, after function-local statics are destroyed.
 *
 * Sharded by manager id so a burst of threads exiting under different
 * managers (the thread-churn pattern) does not serialize on one mutex;
 * shards are line-padded so the locks themselves do not false-share.
 */
struct MgrRegistry {
    static constexpr size_t kShards = 8;

    struct alignas(64) Shard {
        std::mutex mu;
        std::unordered_map<uint64_t, TxnManager *> live;
    };
    std::array<Shard, kShards> shards;

    Shard &shardFor(uint64_t id) { return shards[id % kShards]; }
};

MgrRegistry &
mgrRegistry()
{
    static MgrRegistry *r = new MgrRegistry;
    return *r;
}

/**
 * The calling thread's log leases, one per manager it has transacted
 * under.  On thread exit each lease is returned to its manager's free
 * pool — the per-thread-log slot leak this replaces made every
 * short-lived worker thread consume a log slot forever.
 */
struct LogLeases {
    struct Lease {
        uint64_t mgr;
        log::Rawl *log;
    };
    std::vector<Lease> leases;

    log::Rawl *
    find(uint64_t mgr) const
    {
        for (const auto &l : leases)
            if (l.mgr == mgr)
                return l.log;
        return nullptr;
    }

    ~LogLeases()
    {
        auto &reg = mgrRegistry();
        for (const auto &l : leases) {
            auto &shard = reg.shardFor(l.mgr);
            std::lock_guard<std::mutex> g(shard.mu);
            auto it = shard.live.find(l.mgr);
            if (it != shard.live.end())
                it->second->recycleLog(l.log);
        }
    }
};

LogLeases &
threadLeases()
{
    thread_local LogLeases leases;
    return leases;
}

} // namespace

TxnManager::TxnManager(region::RegionLayer &rl, TxnConfig cfg)
    : rl_(rl), cfg_(cfg), locks_(cfg.lock_bits), mgrId_(nextMgrId())
{
    const size_t need =
        log::LogManager::footprint(cfg_.log_slots, cfg_.log_slot_bytes);
    auto log_region = rl.findByFlags(region::kRegionLog);
    if (log_region.addr == nullptr) {
        void *mem = rl.pmap(nullptr, need, region::kRegionLog);
        logs_ = log::LogManager::create(mem, need, cfg_.log_slots,
                                        cfg_.log_slot_bytes);
    } else {
        logs_ = log::LogManager::open(log_region.addr);
        if (!logs_)
            throw std::runtime_error("TxnManager: corrupt log region");
        // Replay all completed but not flushed transactions (the
        // reincarnation step of section 6.3.2).
        const auto res =
            recoverTransactions(*logs_, rl.manager().vaBase());
        nReplayed_ = res.committed_replayed;
        clock_.store(res.max_ts, std::memory_order_release);
        // The previous run's (now empty) logs are released so slots do
        // not leak across restarts.
        std::vector<log::Rawl *> stale;
        logs_->forEachActive(
            [&](size_t, log::Rawl &log) { stale.push_back(&log); });
        for (auto *log : stale)
            logs_->release(log);
    }
    if (cfg_.truncation == Truncation::kAsync || cfg_.group_commit)
        truncator_ = std::make_unique<TruncationThread>();
    if (cfg_.group_commit) {
        // The marker log is an ordinary slot; it stays on streaming
        // appends (the combiner fences its own marker stream).  It is
        // not recycled through the free pool — recovery tells it apart
        // from member logs by record tags, not by slot.
        log::Rawl *marker = logs_->acquire(/*owner_hint=*/0);
        marker->setSpaceWaiter([this] { truncator_->nudge(); });
        combiner_ = std::make_unique<EpochCombiner>(marker, truncator_.get(),
                                                    cfg_.epoch_max_batch);
        truncator_->setCombiner(combiner_.get());
    }

    {
        auto &shard = mgrRegistry().shardFor(mgrId_);
        std::lock_guard<std::mutex> g(shard.mu);
        shard.live.emplace(mgrId_, this);
    }

    // Counts sum across live managers; per-thread arrays are indexed by
    // obs thread ordinal (mod the shard count), matching scm.* shards.
    statsSourceToken_ =
        obs::StatsRegistry::instance().addSource([this](obs::Sink &sink) {
            sink.emit("mtm.commits", nCommits_.sum());
            sink.emit("mtm.aborts", nAborts_.sum());
            sink.emit("mtm.readonly_commits", nReadonly_.sum());
            sink.emit("mtm.retries", nRetries_.sum());
            sink.emit("mtm.replayed_txns", nReplayed_);
            sink.emit("mtm.truncation_backlog",
                      uint64_t(truncationBacklog()));
            auto trim = [](std::array<uint64_t, obs::kMaxThreadShards> a) {
                std::vector<uint64_t> v(a.begin(), a.end());
                while (!v.empty() && v.back() == 0)
                    v.pop_back();
                return v;
            };
            sink.emitArray("mtm.commits.per_thread", trim(nCommits_.perShard()));
            sink.emitArray("mtm.aborts.per_thread", trim(nAborts_.perShard()));
            sink.emitArray("mtm.retries.per_thread", trim(nRetries_.perShard()));
        });
}

TxnManager::~TxnManager()
{
    {
        // After this, exiting threads' lease destructors skip us.
        auto &shard = mgrRegistry().shardFor(mgrId_);
        std::lock_guard<std::mutex> g(shard.mu);
        shard.live.erase(mgrId_);
    }
    obs::StatsRegistry::instance().removeSource(statsSourceToken_);
    // Retire every open epoch first so the gated truncation tasks all
    // become eligible, then drain the worker.
    if (combiner_)
        combiner_->sync();
    if (truncator_)
        truncator_->drain();
}

void
TxnManager::wait(CommitTicket t)
{
    if (combiner_ && t.pending())
        combiner_->waitRetired(t.epoch, /*linger=*/false);
}

void
TxnManager::sync()
{
    if (combiner_)
        combiner_->sync();
}

log::Rawl *
TxnManager::threadLog()
{
    // One-entry cache for the common case (a thread transacting under a
    // single manager); the lease list handles threads that alternate
    // between managers without leaking a slot per switch.
    thread_local uint64_t cached_mgr = 0;
    thread_local log::Rawl *cached_log = nullptr;
    if (cached_mgr == mgrId_ && cached_log)
        return cached_log;
    auto &leases = threadLeases();
    log::Rawl *log = leases.find(mgrId_);
    if (!log) {
        log = acquireLog();
        leases.leases.push_back({mgrId_, log});
        // A fresh lease means a new committer thread: the combiner's
        // grace heuristic keys off how many exist (lease possession is
        // the stable concurrency signal — see EpochCombiner).
        if (combiner_)
            combiner_->registerCommitter();
    }
    cached_mgr = mgrId_;
    cached_log = log;
    return log;
}

log::Rawl *
TxnManager::acquireLog()
{
    {
        std::lock_guard<std::mutex> g(freeMu_);
        if (!freeLogs_.empty()) {
            log::Rawl *log = freeLogs_.back();
            freeLogs_.pop_back();
            return log;
        }
    }
    static std::atomic<uint64_t> ordinal{0};
    log::Rawl *log = logs_->acquire(ordinal.fetch_add(1) + 1);
    // A producer stalled on this (full) log kicks the async truncator
    // instead of waiting out its poll interval.
    if (truncator_)
        log->setSpaceWaiter([this] { truncator_->nudge(); });
    // Member logs stage records with cached stores under group commit
    // so the combiner's single fence can retire them (shared flush
    // claims); streaming stores would only retire under the producer's
    // own fence, which epoch mode never issues.
    if (cfg_.group_commit)
        log->setCachedAppends(true);
    return log;
}

void
TxnManager::recycleLog(log::Rawl *log)
{
    if (combiner_)
        combiner_->unregisterCommitter();
    {
        std::lock_guard<std::mutex> g(freeMu_);
        freeLogs_.push_back(log);
    }
}

size_t
TxnManager::recycledLogCount() const
{
    std::lock_guard<std::mutex> g(freeMu_);
    return freeLogs_.size();
}

namespace {

/** Per-thread transaction descriptors, one per manager instance. */
std::unordered_map<uint64_t, std::unique_ptr<Txn>> &
threadSlots()
{
    thread_local std::unordered_map<uint64_t, std::unique_ptr<Txn>> slots;
    return slots;
}

} // namespace

Txn &
TxnManager::begin()
{
    // One-entry descriptor cache: a hash lookup per transaction is
    // measurable on the fast path (sub-microsecond transactions).
    thread_local uint64_t cached_mgr = 0;
    thread_local Txn *cached_tx = nullptr;
    Txn *tx = cached_tx;
    if (cached_mgr != mgrId_) {
        auto &slot = threadSlots()[mgrId_];
        if (!slot)
            slot = std::unique_ptr<Txn>(new Txn(*this));
        tx = slot.get();
        cached_mgr = mgrId_;
        cached_tx = tx;
    }
    if (tx->active_) {
        ++tx->depth_; // flat nesting
        return *tx;
    }
    tx->begin(nextTxnId_.fetch_add(1, std::memory_order_relaxed),
              threadLog());
    return *tx;
}

Txn *
TxnManager::current()
{
    auto it = threadSlots().find(mgrId_);
    if (it == threadSlots().end() || !it->second->active_)
        return nullptr;
    return it->second.get();
}

uint64_t
TxnManager::commit(Txn &tx)
{
    assert(tx.active_);
    if (tx.depth_ > 1) {
        --tx.depth_;
        return 0; // durability rides the outermost commit
    }
    return tx.commit();
}

void
TxnManager::backoff(int attempt)
{
    // With the combiner on, the lock we just lost to may belong to a
    // synchronous commit that releases it only after its epoch retires,
    // or to a transaction still in flight that is about to join the
    // open epoch.  (A committed async transaction's stripes are marked
    // retiring, and barriers wait for those instead of aborting.)
    // Drive a combine round from THIS thread — a conflict forces the
    // epoch closed — so progress never depends on the truncator's poll
    // (which may be paused, e.g. under the crash sweeper).  Then kick
    // the truncator anyway so the retired epoch's log space is
    // reclaimed.
    if (combiner_) {
        combiner_->tryAdvance();
        truncator_->nudge();
    }
    // Randomized exponential backoff after a conflict abort.  Yield
    // until the drawn deadline rather than sleep: a timed sleep of a
    // microsecond or two can last tens of microseconds, past the cap.
    thread_local std::mt19937_64 rng{std::random_device{}()};
    const uint64_t cap =
        std::min<uint64_t>(kMaxBackoffUs, 1ULL << std::min(attempt, 12));
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(rng() % (cap + 1));
    do {
        std::this_thread::yield();
    } while (std::chrono::steady_clock::now() < deadline);
}

void
TxnManager::drainTruncation()
{
    // Open epochs gate their truncation tasks; retire them first or the
    // drain would wait on tasks that cannot become eligible.
    if (combiner_)
        combiner_->sync();
    if (truncator_)
        truncator_->drain();
}

void
TxnManager::pauseTruncation()
{
    if (truncator_)
        truncator_->pause();
}

void
TxnManager::resumeTruncation()
{
    if (truncator_)
        truncator_->resume();
}

size_t
TxnManager::truncationBacklog() const
{
    return truncator_ ? truncator_->backlog() : 0;
}

TxnStats
TxnManager::stats() const
{
    TxnStats s;
    s.commits = nCommits_.sum();
    s.aborts = nAborts_.sum();
    s.readonly_commits = nReadonly_.sum();
    s.retries = nRetries_.sum();
    s.replayed_txns = nReplayed_;
    return s;
}

} // namespace mnemosyne::mtm
