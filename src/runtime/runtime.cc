#include "runtime/runtime.h"

#include <atomic>
#include <cassert>
#include <stdexcept>

#include "obs/emitter.h"
#include "obs/stats_registry.h"

namespace mnemosyne {

namespace {

uint64_t
nextRuntimeId()
{
    static std::atomic<uint64_t> gen{0};
    return gen.fetch_add(1, std::memory_order_relaxed) + 1;
}

using clk = std::chrono::steady_clock;

} // namespace

Runtime::Runtime(RuntimeConfig cfg) : id_(nextRuntimeId()), cfg_(cfg)
{
    scm::ScmContext *c = cfg_.scm_context;
    if (!c) {
        ownedScm_ = std::make_unique<scm::ScmContext>(cfg_.scm);
        c = ownedScm_.get();
        scm::setCtx(c);
    }

    // 1. Reconstruct persistent regions: mapping-table scan (simulated
    //    OS boot) happens inside the region manager's constructor...
    auto t0 = clk::now();
    mgr_ = std::make_unique<region::RegionManager>(*c, cfg_.region);
    auto t1 = clk::now();
    reinc_.region_reconstruct = t1 - t0;

    // 2. ...then libmnemosyne remaps the process's regions.
    regions_ = std::make_unique<region::RegionLayer>(
        *mgr_, cfg_.static_region_bytes);
    auto t2 = clk::now();
    reinc_.region_remap = t2 - t1;
    region::setCurrentRegionLayer(regions_.get());

    // 3. Recover the persistent heap and scavenge its volatile indexes.
    heap_ = std::make_unique<heap::PHeap>(*regions_, cfg_.small_heap_bytes,
                                          cfg_.big_heap_bytes,
                                          cfg_.heap_global_lock);
    auto t3 = clk::now();
    reinc_.heap_scavenge = t3 - t2;

    // 4. Replay completed but not flushed transactions.
    txns_ = std::make_unique<mtm::TxnManager>(*regions_, cfg_.txn);
    auto t4 = clk::now();
    reinc_.txn_replay = t4 - t3;
    reinc_.replayed_txns = txns_->stats().replayed_txns;

    // 5. Reclaim staged allocations that never got linked (and staged
    //    frees that never got reaped).
    staging_ = static_cast<void **>(regions_->pstaticVar(
        "mtm_alloc_staging",
        kSlotsPerThread * kMaxThreads * sizeof(void *), nullptr));
    for (size_t i = 0; i < kSlotsPerThread * kMaxThreads; ++i) {
        if (staging_[i] != nullptr) {
            heap_->pfree(&staging_[i]);
            ++reinc_.reclaimed_allocs;
        }
    }

    statsSourceToken_ =
        obs::StatsRegistry::instance().addSource([this](obs::Sink &sink) {
            sink.emit("reinc.region_reconstruct_ns",
                      uint64_t(reinc_.region_reconstruct.count()));
            sink.emit("reinc.region_remap_ns",
                      uint64_t(reinc_.region_remap.count()));
            sink.emit("reinc.heap_scavenge_ns",
                      uint64_t(reinc_.heap_scavenge.count()));
            sink.emit("reinc.txn_replay_ns",
                      uint64_t(reinc_.txn_replay.count()));
            sink.emit("reinc.replayed_txns", uint64_t(reinc_.replayed_txns));
            sink.emit("reinc.reclaimed_allocs",
                      uint64_t(reinc_.reclaimed_allocs));
        });

    // Live export: start the stats emitter when MNEMOSYNE_STATS_PORT is
    // set (or in SIGUSR2 dump-only mode when stats are on).  Idempotent
    // across Runtime incarnations; the emitter thread is process-global.
    obs::StatsEmitter::maybeStartFromEnv();
}

Runtime::~Runtime()
{
    // Snapshot while every layer is still alive and registered; the
    // dump itself only writes anything when MNEMOSYNE_STATS is on.
    obs::shutdownDump();
    obs::StatsRegistry::instance().removeSource(statsSourceToken_);
    txns_.reset();     // drains async truncation
    heap_.reset();
    if (regions_ && region::currentRegionLayer() == regions_.get())
        region::setCurrentRegionLayer(nullptr);
    regions_.reset();
    mgr_.reset();
    // Clean shutdown: everything reaches SCM.  The owned context
    // unpublishes itself when it is destroyed.
    if (ownedScm_)
        ownedScm_->persistAll();
}

size_t
Runtime::threadOrdinal()
{
    thread_local uint64_t cached_rt = 0;
    thread_local size_t ordinal = 0;
    if (cached_rt != id_) {
        ordinal = stagingOrdinal_.fetch_add(1, std::memory_order_relaxed);
        assert(ordinal < kMaxThreads && "too many threads for staging slots");
        cached_rt = id_;
    }
    return ordinal;
}

void **
Runtime::mySlots()
{
    return &staging_[kSlotsPerThread * threadOrdinal()];
}

void *
Runtime::stageAlloc(size_t size)
{
    void **slots = mySlots();
    for (size_t i = 0; i < kStageSlots; ++i) {
        if (slots[i] == nullptr) {
            heap_->pmalloc(size, &slots[i]);
            return slots[i];
        }
    }
    throw std::runtime_error("Runtime: too many staged allocations in one "
                             "transaction");
}

void
Runtime::resetStaging()
{
    void **slots = mySlots();
    for (size_t i = 0; i < kStageSlots; ++i) {
        if (slots[i] != nullptr)
            heap_->pfree(&slots[i]);
    }
}

void
Runtime::clearAllocStaging(mtm::Txn &tx)
{
    void **slots = mySlots();
    for (size_t i = 0; i < kStageSlots; ++i) {
        if (slots[i] != nullptr)
            tx.writeT<void *>(&slots[i], nullptr);
    }
}

void
Runtime::stageFree(mtm::Txn &tx, void *block)
{
    void **graves = mySlots() + kStageSlots;
    for (size_t i = 0; i < kGraveSlots; ++i) {
        // Read through the transaction: an earlier stageFree in this
        // same transaction has only buffered its slot write.
        if (tx.readT<void *>(&graves[i]) == nullptr) {
            tx.writeT<void *>(&graves[i], block);
            return;
        }
    }
    throw std::runtime_error("Runtime: too many staged frees in one "
                             "transaction");
}

void
Runtime::reapStagedFree()
{
    void **graves = mySlots() + kStageSlots;
    for (size_t i = 0; i < kGraveSlots; ++i) {
        if (graves[i] != nullptr)
            heap_->pfree(&graves[i]);
    }
}

void
Runtime::syncThreadStaging()
{
    StagedTicket &slot = stagedAsync_[threadOrdinal()];
    if (slot.ticket.pending()) {
        txns_->wait(slot.ticket);
        slot.ticket = {};
        reapStagedFree();
    }
}

void
Runtime::noteStagedAsync(mtm::CommitTicket t)
{
    if (t.pending()) {
        stagedAsync_[threadOrdinal()].ticket = t;
    } else {
        // Combiner off (or degraded): the commit was synchronous and its
        // write-back already ran, so the graves are current — reap now.
        reapStagedFree();
    }
}

} // namespace mnemosyne
