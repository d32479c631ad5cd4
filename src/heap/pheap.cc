#include "heap/pheap.h"

#include <cassert>
#include <new>
#include <stdexcept>

#include "obs/obs.h"
#include "obs/stats_registry.h"

namespace mnemosyne::heap {

namespace {

struct HeapCounters {
    obs::Counter pmallocs{"heap.pmallocs"};
    obs::Counter pfrees{"heap.pfrees"};
    obs::Counter bytes_requested{"heap.bytes_requested"};
    obs::Counter small_exhausted{"heap.small_exhausted"};
};

HeapCounters &
ctrs()
{
    static HeapCounters c;
    return c;
}

} // namespace

PHeap::PHeap(region::RegionLayer &rl, size_t small_bytes, size_t big_bytes,
             bool global_lock)
    : rl_(rl), globalLock_(global_lock)
{
    scm::ScmContext &c = rl.manager().scm();
    auto small_region = rl.findByFlags(region::kRegionHeap);
    if (small_region.addr == nullptr) {
        void *mem = rl.pmap(nullptr, small_bytes, region::kRegionHeap);
        small_ = SuperblockHeap::create(c, mem, small_bytes);
    } else {
        small_ = SuperblockHeap::open(c, small_region.addr);
        if (!small_)
            throw std::runtime_error("PHeap: corrupt superblock heap");
    }
    if (globalLock_)
        small_->setSerialized(true);
    initStats_.scavenged_superblocks = small_->stats().superblocks;

    auto big_region = rl.findByFlags(region::kRegionHeapBig);
    if (big_region.addr == nullptr) {
        void *mem = rl.pmap(nullptr, big_bytes, region::kRegionHeapBig);
        big_ = StripedBigAlloc::create(c, mem, big_bytes);
    } else {
        big_ = StripedBigAlloc::open(c, big_region.addr);
        if (!big_)
            throw std::runtime_error("PHeap: corrupt big-block heap");
    }
    initStats_.walked_chunks = big_->rebuildFreeList();

    statsSourceToken_ =
        obs::StatsRegistry::instance().addSource([this](obs::Sink &sink) {
            const PHeapStats s = stats();
            sink.emit("heap.superblocks", uint64_t(s.small.superblocks));
            sink.emit("heap.small_blocks_allocated",
                      uint64_t(s.small.blocks_allocated));
            sink.emit("heap.small_bytes_allocated",
                      uint64_t(s.small.bytes_allocated));
            sink.emit("heap.big_chunks_in_use", uint64_t(s.big.chunks_in_use));
            sink.emit("heap.big_bytes_in_use", uint64_t(s.big.bytes_in_use));
            sink.emit("heap.scavenged_superblocks",
                      uint64_t(s.scavenged_superblocks));
            sink.emit("heap.walked_chunks", uint64_t(s.walked_chunks));
        });
}

PHeap::~PHeap()
{
    obs::StatsRegistry::instance().removeSource(statsSourceToken_);
}

void
PHeap::pmalloc(size_t size, void *pptr)
{
    assert(pptr != nullptr);
    // Baseline mode only: the sub-allocators carry their own locks.
    std::unique_lock<std::mutex> g(mu_, std::defer_lock);
    if (globalLock_)
        g.lock();
    auto **slot = static_cast<void **>(pptr);
    ctrs().pmallocs.add(1);
    ctrs().bytes_requested.add(size);
    if (size <= SuperblockHeap::kMaxBlock) {
        if (small_->allocate(size, slot))
            return;
        // Small heap exhausted: fall through to the big allocator.
        ctrs().small_exhausted.add(1);
    }
    if (!big_->allocate(size, slot))
        throw std::bad_alloc();
}

void
PHeap::pfree(void *pptr)
{
    assert(pptr != nullptr);
    std::unique_lock<std::mutex> g(mu_, std::defer_lock);
    if (globalLock_)
        g.lock();
    auto **slot = static_cast<void **>(pptr);
    void *p = *slot;
    assert(p != nullptr && "pfree of null pointer");
    ctrs().pfrees.add(1);
    if (small_->owns(p)) {
        small_->free(slot);
    } else if (big_->owns(p)) {
        big_->free(slot);
    } else {
        throw std::invalid_argument("pfree: pointer not from this heap");
    }
}

size_t
PHeap::usableSize(const void *p) const
{
    if (small_->owns(p))
        return small_->blockSize(p);
    if (big_->owns(p))
        return big_->blockSize(p);
    return 0;
}

bool
PHeap::owns(const void *p) const
{
    return small_->owns(p) || big_->owns(p);
}

PHeapStats
PHeap::stats() const
{
    PHeapStats s = initStats_;
    s.small = small_->stats();
    s.big = big_->stats();
    return s;
}

} // namespace mnemosyne::heap
