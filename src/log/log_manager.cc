#include "log/log_manager.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/obs.h"
#include "scm/scm.h"

namespace mnemosyne::log {

namespace {

struct LogMgrCounters {
    obs::Counter acquires{"log.slot_acquires"};
    obs::Counter releases{"log.slot_releases"};
};

LogMgrCounters &
ctrs()
{
    static LogMgrCounters c;
    return c;
}

size_t
alignUp(size_t v, size_t a)
{
    return (v + a - 1) & ~(a - 1);
}

} // namespace

size_t
LogManager::footprint(size_t nslots, size_t slot_bytes)
{
    return alignUp(sizeof(Header) + nslots * sizeof(SlotState), 64) +
           nslots * slot_bytes;
}

LogManager::LogManager(scm::ScmContext &scm, Header *hdr, SlotState *states,
                       uint8_t *slots_base)
    : scm_(scm), hdr_(hdr), states_(states), slotsBase_(slots_base)
{
    logs_.resize(size_t(hdr_->nslots));
    nShards_ = std::min(kNumShards, logs_.size() ? logs_.size() : size_t(1));
}

std::unique_ptr<LogManager>
LogManager::create(scm::ScmContext &c, void *mem, size_t bytes,
                   size_t nslots, size_t slot_bytes)
{
    assert(bytes >= footprint(nslots, slot_bytes));
    (void)bytes;
    auto *hdr = static_cast<Header *>(mem);
    auto *states = reinterpret_cast<SlotState *>(hdr + 1);
    auto *base = static_cast<uint8_t *>(mem) +
                 alignUp(sizeof(Header) + nslots * sizeof(SlotState), 64);

    std::vector<SlotState> zero(nslots, SlotState{0, 0});
    c.wtstore(states, zero.data(), nslots * sizeof(SlotState));
    Header h{kMagic, nslots, slot_bytes, 0};
    c.wtstore(hdr, &h, sizeof(h));
    c.fence();
    return std::unique_ptr<LogManager>(new LogManager(c, hdr, states, base));
}

std::unique_ptr<LogManager>
LogManager::open(scm::ScmContext &c, void *mem)
{
    auto *hdr = static_cast<Header *>(mem);
    if (hdr->magic != kMagic)
        return nullptr;
    auto *states = reinterpret_cast<SlotState *>(hdr + 1);
    auto *base = static_cast<uint8_t *>(mem) +
                 alignUp(sizeof(Header) + size_t(hdr->nslots) *
                         sizeof(SlotState), 64);
    auto lm =
        std::unique_ptr<LogManager>(new LogManager(c, hdr, states, base));
    for (size_t i = 0; i < lm->nslots(); ++i) {
        if (states[i].active) {
            auto log = Rawl::open(c, lm->slotMem(i));
            // A slot marked active whose log was never formatted (crash
            // between the slot flag and the log header) is reclaimed.
            if (log) {
                log->setSlotId(i);
                lm->logs_[i] = std::move(log);
            } else {
                c.wtstoreT(&states[i].active, uint64_t(0));
                c.fence();
            }
        }
    }
    return lm;
}

Rawl *
LogManager::acquireInShard(size_t shard, uint64_t owner_hint)
{
    std::lock_guard<std::mutex> g(shards_[shard].mu);
    for (size_t i = shard; i < nslots(); i += nShards_) {
        if (states_[i].active || logs_[i])
            continue;
        // Format the log first, then durably flip the slot flag: a crash
        // in between leaves an inactive, formatted slot — harmless.
        logs_[i] = Rawl::create(scm_, slotMem(i), slotBytes());
        logs_[i]->setSlotId(i);
        scm_.wtstoreT(&states_[i].ownerHint, owner_hint);
        scm_.wtstoreT(&states_[i].active, uint64_t(1));
        scm_.fence();
        ctrs().acquires.add(1);
        return logs_[i].get();
    }
    return nullptr;
}

Rawl *
LogManager::acquire(uint64_t owner_hint)
{
    // Home shard by owner hint: concurrent acquirers land on different
    // locks and format their slots (the expensive part — megabytes of
    // filler writes) in parallel, falling over when a shard runs dry.
    const size_t home = size_t(owner_hint) % nShards_;
    for (size_t s = 0; s < nShards_; ++s) {
        if (Rawl *log = acquireInShard((home + s) % nShards_, owner_hint))
            return log;
    }
    throw std::runtime_error("LogManager: out of log slots");
}

void
LogManager::release(Rawl *log)
{
    for (size_t shard = 0; shard < nShards_; ++shard) {
        std::lock_guard<std::mutex> g(shards_[shard].mu);
        for (size_t i = shard; i < nslots(); i += nShards_) {
            if (logs_[i].get() != log)
                continue;
            log->truncateAll();
            scm_.wtstoreT(&states_[i].active, uint64_t(0));
            scm_.fence();
            logs_[i].reset();
            ctrs().releases.add(1);
            return;
        }
    }
    assert(false && "release of unknown log");
}

void
LogManager::forEachActive(
    const std::function<void(size_t, Rawl &)> &fn)
{
    // One shard lock at a time; visits slots in shard-interleaved
    // order, which no caller depends on.
    for (size_t shard = 0; shard < nShards_; ++shard) {
        std::lock_guard<std::mutex> g(shards_[shard].mu);
        for (size_t i = shard; i < nslots(); i += nShards_) {
            if (logs_[i])
                fn(i, *logs_[i]);
        }
    }
}

size_t
LogManager::activeCount() const
{
    size_t n = 0;
    for (size_t shard = 0; shard < nShards_; ++shard) {
        std::lock_guard<std::mutex> g(shards_[shard].mu);
        for (size_t i = shard; i < nslots(); i += nShards_)
            n += (logs_[i] != nullptr);
    }
    return n;
}

} // namespace mnemosyne::log
