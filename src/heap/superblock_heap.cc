#include "heap/superblock_heap.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <unordered_map>

#include "obs/hdr_histogram.h"
#include "obs/obs.h"
#include "scm/scm.h"

namespace mnemosyne::heap {

/**
 * Per-thread heap state.  The mutex covers the partial lists, the
 * private redo log, and every superblock the cache owns; in steady
 * state only the owning thread takes it (uncontended), cross-thread
 * frees and superblock transfers are the exceptions.
 */
struct SbThreadCache {
    std::mutex mu;
    std::unique_ptr<log::AtomicRedo> redo;
    std::array<std::vector<uint32_t>, SuperblockHeap::kNumClasses> partial;
    /** Threads currently leasing this cache (shared only when thread
     *  count exceeds kNumCaches); 0 == parked. */
    std::atomic<uint32_t> users{0};
    uint32_t idx = 0;

    /** Bridge for the thread-exit lease destructor below. */
    static void
    park(SuperblockHeap *h, SbThreadCache *tc)
    {
        h->parkCache(tc);
    }
};

namespace {

size_t
alignUp(size_t v, size_t a)
{
    return (v + a - 1) & ~(a - 1);
}

uint64_t
nextHeapId()
{
    static std::atomic<uint64_t> gen{0};
    return gen.fetch_add(1, std::memory_order_relaxed) + 1;
}

struct SbObs {
    obs::Counter transfers{"heap.superblock_transfers"};
    obs::Counter contended{"heap.lock_contended", true};
    /** Contended-acquire wait, HDR-bucketed: heap lock waits cluster
     *  tightly, and log2 buckets hide 2x regressions inside one bin. */
    obs::HdrHistogram lock_wait{"heap.lock_wait_ns"};
};

SbObs &
sbObs()
{
    static SbObs o;
    return o;
}

/**
 * Mutex guard with contention accounting: an uncontended acquisition is
 * one try_lock; a contended one bumps heap.lock_contended (per-thread
 * breakdown) and, when stats are enabled, times the wait into
 * heap.lock_wait_ns.
 */
struct TimedLock {
    explicit TimedLock(std::mutex &m) : mu(m)
    {
        if (mu.try_lock())
            return;
        auto &o = sbObs();
        o.contended.add(1);
        if (obs::enabled()) {
            const uint64_t t0 = obs::nowNs();
            mu.lock();
            o.lock_wait.recordAlways(obs::nowNs() - t0);
        } else {
            mu.lock();
        }
    }
    ~TimedLock() { mu.unlock(); }
    TimedLock(const TimedLock &) = delete;
    TimedLock &operator=(const TimedLock &) = delete;

    std::mutex &mu;
};

/**
 * Live heaps by id (ids are never reused).  Mirrors the transaction
 * manager's log-lease registry: a thread-exit lease destructor must not
 * touch a heap that died first, so the registry mutex is held across
 * the lookup AND the park call.  Allocated immortally because
 * thread_local destructors can outlive function-local statics.
 */
struct HeapRegistry {
    std::mutex mu;
    std::unordered_map<uint64_t, SuperblockHeap *> live;
};

HeapRegistry &
heapRegistry()
{
    static HeapRegistry *r = new HeapRegistry;
    return *r;
}

// One-entry fast path for cacheForThread (a thread allocating from a
// single heap, the common case).  Ids are never reused, so a stale
// entry can only miss, never alias a different heap.
thread_local uint64_t tlFastHeapId = 0;
thread_local SbThreadCache *tlFastCache = nullptr;

/**
 * The calling thread's cache leases, one per heap it has allocated
 * from.  On thread exit each lease is parked so the cache's
 * superblocks return to the global pool and the cache (and its log)
 * is adopted by the next thread instead of being stranded.
 */
struct CacheLeases {
    struct Lease {
        uint64_t heap;
        SbThreadCache *tc;
    };
    std::vector<Lease> leases;

    SbThreadCache *
    find(uint64_t heap) const
    {
        for (const auto &l : leases)
            if (l.heap == heap)
                return l.tc;
        return nullptr;
    }

    void
    drop(uint64_t heap)
    {
        for (auto &l : leases) {
            if (l.heap == heap) {
                l = leases.back();
                leases.pop_back();
                return;
            }
        }
    }

    ~CacheLeases()
    {
        auto &reg = heapRegistry();
        std::lock_guard<std::mutex> g(reg.mu);
        for (const auto &l : leases) {
            auto it = reg.live.find(l.heap);
            if (it != reg.live.end())
                SbThreadCache::park(it->second, l.tc);
        }
    }
};

CacheLeases &
threadCacheLeases()
{
    thread_local CacheLeases leases;
    return leases;
}

} // namespace

size_t
SuperblockHeap::footprint(size_t n_superblocks)
{
    return alignUp(sizeof(Header) + n_superblocks * sizeof(SbMeta) +
                       kNumLogs * kRedoLogBytes,
                   kSuperblockBytes) +
           n_superblocks * kSuperblockBytes;
}

size_t
SuperblockHeap::classIndexFor(size_t size)
{
    if (size == 0)
        size = 1;
    const size_t rounded = std::bit_ceil(std::max(size, kMinBlock));
    if (rounded > kMaxBlock)
        return kNumClasses;
    return size_t(std::countr_zero(rounded)) -
           size_t(std::countr_zero(kMinBlock));
}

SuperblockHeap::SuperblockHeap(Header *hdr, SbMeta *meta, uint8_t *data,
                               uint8_t *logs_mem)
    : hdr_(hdr), meta_(meta), data_(data), heapId_(nextHeapId())
{
    (void)logs_mem;
    nSb_ = size_t(hdr->nSuperblocks);
    owner_ = std::vector<std::atomic<SbThreadCache *>>(nSb_);
    caches_.reserve(kNumCaches);
    auto &reg = heapRegistry();
    std::lock_guard<std::mutex> g(reg.mu);
    reg.live.emplace(heapId_, this);
}

SuperblockHeap::~SuperblockHeap()
{
    // After this, exiting threads' lease destructors skip us.
    auto &reg = heapRegistry();
    std::lock_guard<std::mutex> g(reg.mu);
    reg.live.erase(heapId_);
}

std::unique_ptr<SuperblockHeap>
SuperblockHeap::create(scm::ScmContext &c, void *mem, size_t bytes)
{
    auto *hdr = static_cast<Header *>(mem);
    // Solve for the superblock count that fits in @p bytes.
    size_t n = bytes / kSuperblockBytes;
    while (n > 0 && footprint(n) > bytes)
        --n;
    assert(n > 0 && "heap region too small");

    auto *meta = reinterpret_cast<SbMeta *>(hdr + 1);
    auto *logs_mem = reinterpret_cast<uint8_t *>(meta + n);
    auto *data = static_cast<uint8_t *>(mem) +
                 alignUp(sizeof(Header) + n * sizeof(SbMeta) +
                             kNumLogs * kRedoLogBytes,
                         kSuperblockBytes);

    // Fresh regions are zero-filled; persist the metadata explicitly
    // anyway (sizeClass 0 == unassigned and an all-zero bitmap is
    // exactly the empty state).
    std::vector<uint8_t> zero(n * sizeof(SbMeta), 0);
    c.wtstore(meta, zero.data(), zero.size());

    // Format the logs before the header so a valid magic implies valid
    // logs.
    std::vector<std::unique_ptr<log::Rawl>> logs;
    for (size_t i = 0; i < kNumLogs; ++i)
        logs.push_back(
            log::Rawl::create(c, logs_mem + i * kRedoLogBytes,
                              kRedoLogBytes));

    Header h{kMagic, n, kNumLogs, 0};
    c.wtstore(hdr, &h, sizeof(h));
    c.fence();

    auto heap = std::unique_ptr<SuperblockHeap>(
        new SuperblockHeap(hdr, meta, data, logs_mem));
    heap->logs_ = std::move(logs);
    heap->poolRedo_ =
        std::make_unique<log::AtomicRedo>(*heap->logs_[kNumCaches]);
    heap->scavenge();
    return heap;
}

std::unique_ptr<SuperblockHeap>
SuperblockHeap::open(scm::ScmContext &c, void *mem)
{
    auto *hdr = static_cast<Header *>(mem);
    if (hdr->magic != kMagic || hdr->nLogs != kNumLogs)
        return nullptr;
    const size_t n = size_t(hdr->nSuperblocks);
    auto *meta = reinterpret_cast<SbMeta *>(hdr + 1);
    auto *logs_mem = reinterpret_cast<uint8_t *>(meta + n);
    auto *data = static_cast<uint8_t *>(mem) +
                 alignUp(sizeof(Header) + n * sizeof(SbMeta) +
                             kNumLogs * kRedoLogBytes,
                         kSuperblockBytes);

    auto heap = std::unique_ptr<SuperblockHeap>(
        new SuperblockHeap(hdr, meta, data, logs_mem));
    for (size_t i = 0; i < kNumLogs; ++i) {
        auto log = log::Rawl::open(c, logs_mem + i * kRedoLogBytes);
        if (!log)
            return nullptr;
        heap->logs_.push_back(std::move(log));
    }
    // Complete any interrupted allocate/free.  Replay order across logs
    // does not matter: bitmap words are only mutated under the owning
    // cache's mutex and a record's lifetime is contained in that
    // critical section, so at crash time at most one pending record in
    // all logs touches any given word (see the file header).
    for (auto &log : heap->logs_)
        log::AtomicRedo(*log).recover();
    heap->poolRedo_ =
        std::make_unique<log::AtomicRedo>(*heap->logs_[kNumCaches]);
    heap->scavenge();
    return heap;
}

size_t
SuperblockHeap::scavenge()
{
    // Quiescent-only: create/open call this before any thread cache
    // exists, so indexes can be rebuilt without locks.
    assert(caches_.empty());
    index_.assign(nSb_, SbIndex{});
    for (size_t sb = 0; sb < nSb_; ++sb)
        owner_[sb].store(nullptr, std::memory_order_relaxed);
    for (auto &p : poolPartial_)
        p.clear();
    poolFree_.clear();
    unassigned_.clear();

    for (size_t sb = 0; sb < nSb_; ++sb) {
        const SbMeta &m = meta_[sb];
        if (m.sizeClass == 0) {
            unassigned_.push_back(uint32_t(sb));
            continue;
        }
        const size_t cls = size_t(m.sizeClass) - 1;
        const size_t blocks = kSuperblockBytes / classBlockSize(cls);
        size_t used = 0;
        for (size_t w = 0; w < kBitmapWords; ++w)
            used += size_t(std::popcount(m.bitmap[w]));
        index_[sb].classIdx = int8_t(cls);
        index_[sb].blocks = uint32_t(blocks);
        index_[sb].freeBlocks = uint32_t(blocks - used);
        if (used == 0) {
            // Fully free: reclassifiable, back to the pool.
            pushFreePool(uint32_t(sb));
        } else if (used < blocks) {
            pushList(poolPartial_[cls], uint32_t(sb));
        }
        // Full superblocks stay unlisted until a free arrives.
    }
    return nSb_;
}

size_t
SuperblockHeap::sbOf(const void *p) const
{
    const auto off = size_t(static_cast<const uint8_t *>(p) - data_);
    return off / kSuperblockBytes;
}

bool
SuperblockHeap::owns(const void *p) const
{
    return p >= data_ && p < data_ + nSb_ * kSuperblockBytes;
}

size_t
SuperblockHeap::blockSize(const void *p) const
{
    const size_t sb = sbOf(p);
    assert(sb < nSb_ && meta_[sb].sizeClass != 0);
    return classBlockSize(size_t(meta_[sb].sizeClass) - 1);
}

void
SuperblockHeap::pushList(std::vector<uint32_t> &list, uint32_t sb)
{
    index_[sb].listPos = uint32_t(list.size());
    index_[sb].listed = true;
    list.push_back(sb);
}

void
SuperblockHeap::pushFreePool(uint32_t sb)
{
    // Not "listed": poolFree_ superblocks have no allocated blocks, so
    // the free path can never reach them.
    index_[sb].listPos = uint32_t(poolFree_.size());
    index_[sb].listed = false;
    poolFree_.push_back(sb);
}

void
SuperblockHeap::removeFromList(std::vector<uint32_t> &list, uint32_t sb)
{
    const uint32_t pos = index_[sb].listPos;
    assert(pos < list.size() && list[pos] == sb);
    list[pos] = list.back();
    index_[list[pos]].listPos = pos;
    list.pop_back();
    index_[sb].listed = false;
}

void
SuperblockHeap::claimIndex(uint32_t sb, size_t cls)
{
    const size_t blocks = kSuperblockBytes / classBlockSize(cls);
    index_[sb].classIdx = int8_t(cls);
    index_[sb].blocks = uint32_t(blocks);
    index_[sb].freeBlocks = uint32_t(blocks);
    index_[sb].listed = false;
}

SbThreadCache *
SuperblockHeap::cacheForThread()
{
    if (tlFastHeapId == heapId_)
        return tlFastCache;
    auto &leases = threadCacheLeases();
    SbThreadCache *tc = leases.find(heapId_);
    if (tc == nullptr) {
        {
            TimedLock g(poolMu_);
            tc = acquireCacheLocked();
        }
        leases.leases.push_back({heapId_, tc});
    }
    tlFastHeapId = heapId_;
    tlFastCache = tc;
    return tc;
}

SbThreadCache *
SuperblockHeap::acquireCacheLocked()
{
    // Prefer a fresh cache while slots (== private logs) remain: a new
    // cache has a never-shared mutex and spreads recovery work across
    // the logs.
    if (caches_.size() < kNumCaches) {
        auto tc = std::make_unique<SbThreadCache>();
        tc->idx = uint32_t(caches_.size());
        tc->redo = std::make_unique<log::AtomicRedo>(*logs_[tc->idx]);
        tc->users.store(1, std::memory_order_relaxed);
        caches_.push_back(std::move(tc));
        return caches_.back().get();
    }
    if (!parkedCaches_.empty()) {
        SbThreadCache *tc = caches_[parkedCaches_.back()].get();
        parkedCaches_.pop_back();
        tc->users.fetch_add(1, std::memory_order_relaxed);
        return tc;
    }
    // More live threads than caches: share one round-robin.  Every
    // cache operation takes the cache mutex, so sharing is merely
    // contended, never incorrect.
    const uint32_t idx =
        rrNext_.fetch_add(1, std::memory_order_relaxed) % uint32_t(kNumCaches);
    SbThreadCache *tc = caches_[idx].get();
    tc->users.fetch_add(1, std::memory_order_relaxed);
    return tc;
}

void
SuperblockHeap::parkCache(SbThreadCache *tc)
{
    TimedLock g(tc->mu);
    if (tc->users.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return; // still shared by another thread
    std::lock_guard<std::mutex> g2(poolMu_);
    for (size_t cls = 0; cls < kNumClasses; ++cls) {
        for (const uint32_t sb : tc->partial[cls]) {
            index_[sb].listed = false;
            owner_[sb].store(nullptr, std::memory_order_release);
            if (index_[sb].freeBlocks == index_[sb].blocks)
                pushFreePool(sb);
            else
                pushList(poolPartial_[cls], sb);
            sbObs().transfers.add(1);
        }
        tc->partial[cls].clear();
    }
    // Full superblocks keep owner == tc; frees into them still lock
    // tc->mu and hand them to the pool (freeInCache's parked branch).
    parkedCaches_.push_back(tc->idx);
}

void
SuperblockHeap::detachThreadCache()
{
    auto &leases = threadCacheLeases();
    SbThreadCache *tc = leases.find(heapId_);
    if (tc == nullptr)
        return;
    leases.drop(heapId_);
    if (tlFastHeapId == heapId_) {
        tlFastHeapId = 0;
        tlFastCache = nullptr;
    }
    parkCache(tc);
}

bool
SuperblockHeap::refill(SbThreadCache *tc, size_t cls, uint32_t *out_sb,
                       bool *out_claim)
{
    TimedLock g(poolMu_);
    uint32_t sb;
    if (!poolPartial_[cls].empty()) {
        sb = poolPartial_[cls].back();
        removeFromList(poolPartial_[cls], sb);
        *out_claim = false;
    } else if (!poolFree_.empty()) {
        sb = poolFree_.back();
        poolFree_.pop_back();
        claimIndex(sb, cls);
        *out_claim = true;
    } else if (!unassigned_.empty()) {
        sb = unassigned_.back();
        unassigned_.pop_back();
        claimIndex(sb, cls);
        *out_claim = true;
    } else {
        return false; // heap full for this class
    }
    owner_[sb].store(tc, std::memory_order_release);
    pushList(tc->partial[cls], sb);
    sbObs().transfers.add(1);
    *out_sb = sb;
    return true;
}

void *
SuperblockHeap::allocInSb(uint32_t sb, size_t cls, bool claim, void **pptr,
                          log::AtomicRedo &redo, std::vector<uint32_t> &list)
{
    SbMeta &m = meta_[sb];
    const size_t bsz = classBlockSize(cls);
    const size_t blocks = index_[sb].blocks;
    assert(index_[sb].freeBlocks > 0);

    // Pick the first clear bit.
    size_t blk = blocks;
    for (size_t w = 0; w < kBitmapWords && blk == blocks; ++w) {
        const uint64_t inverted = ~m.bitmap[w];
        if (inverted == 0)
            continue;
        const size_t bit = size_t(std::countr_zero(inverted));
        if (w * 64 + bit < blocks)
            blk = w * 64 + bit;
    }
    assert(blk < blocks && "index said free but bitmap is full");

    void *block = static_cast<uint8_t *>(sbData(sb)) + blk * bsz;

    // Durably apply: (size-class claim,) bitmap bit, destination pointer.
    const size_t word = blk / 64;
    log::WordWrite writes[3];
    size_t nw = 0;
    if (claim)
        writes[nw++] = {&m.sizeClass, uint64_t(cls) + 1};
    writes[nw++] = {&m.bitmap[word],
                    m.bitmap[word] | (uint64_t(1) << (blk % 64))};
    writes[nw++] = {reinterpret_cast<uint64_t *>(pptr),
                    reinterpret_cast<uint64_t>(block)};
    redo.apply({writes, nw});

    if (--index_[sb].freeBlocks == 0)
        removeFromList(list, sb);
    return block;
}

void *
SuperblockHeap::allocateFromPoolLocked(size_t cls, void **pptr)
{
    uint32_t sb;
    bool claim = false;
    if (!poolPartial_[cls].empty()) {
        sb = poolPartial_[cls].back();
    } else if (!poolFree_.empty()) {
        sb = poolFree_.back();
        poolFree_.pop_back();
        claimIndex(sb, cls);
        claim = true;
        pushList(poolPartial_[cls], sb);
    } else if (!unassigned_.empty()) {
        sb = unassigned_.back();
        unassigned_.pop_back();
        claimIndex(sb, cls);
        claim = true;
        pushList(poolPartial_[cls], sb);
    } else {
        return nullptr; // heap full for this class
    }
    return allocInSb(sb, cls, claim, pptr, *poolRedo_, poolPartial_[cls]);
}

void *
SuperblockHeap::allocate(size_t size, void **pptr)
{
    const size_t cls = classIndexFor(size);
    if (cls >= kNumClasses)
        return nullptr;

    if (serialized_.load(std::memory_order_acquire)) {
        TimedLock g(poolMu_);
        return allocateFromPoolLocked(cls, pptr);
    }

    SbThreadCache *tc = cacheForThread();
    TimedLock g(tc->mu);
    uint32_t sb;
    bool claim = false;
    if (!tc->partial[cls].empty()) {
        // Listed entries always have space: superblocks are delisted
        // the moment they fill up.
        sb = tc->partial[cls].back();
    } else if (!refill(tc, cls, &sb, &claim)) {
        return nullptr;
    }
    return allocInSb(sb, cls, claim, pptr, *tc->redo, tc->partial[cls]);
}

size_t
SuperblockHeap::freeInSb(void **pptr, log::AtomicRedo &redo)
{
    void *p = *pptr;
    const size_t sb = sbOf(p);
    SbMeta &m = meta_[sb];
    assert(m.sizeClass != 0 && "free into unassigned superblock");
    const size_t cls = size_t(m.sizeClass) - 1;
    const size_t bsz = classBlockSize(cls);
    const size_t blk = size_t(static_cast<uint8_t *>(p) -
                              static_cast<uint8_t *>(sbData(sb))) /
                       bsz;
    const size_t word = blk / 64;
    assert((m.bitmap[word] >> (blk % 64)) & 1 && "double free");

    const log::WordWrite writes[] = {
        {&m.bitmap[word], m.bitmap[word] & ~(uint64_t(1) << (blk % 64))},
        {reinterpret_cast<uint64_t *>(pptr), 0},
    };
    redo.apply(writes);

    index_[sb].freeBlocks++;
    assert(index_[sb].freeBlocks <= index_[sb].blocks);
    return cls;
}

void
SuperblockHeap::freeInCache(SbThreadCache *o, uint32_t sb, void **pptr)
{
    const size_t cls = freeInSb(pptr, *o->redo);
    SbIndex &ix = index_[sb];
    if (!ix.listed) {
        // Full -> partial again.
        if (o->users.load(std::memory_order_relaxed) == 0) {
            // Owner is parked: hand the superblock straight to the pool
            // so allocating threads can find it.
            std::lock_guard<std::mutex> g(poolMu_);
            owner_[sb].store(nullptr, std::memory_order_release);
            pushList(poolPartial_[cls], sb);
            sbObs().transfers.add(1);
        } else {
            pushList(o->partial[cls], sb);
        }
    } else if (ix.freeBlocks == ix.blocks && o->partial[cls].size() > 1) {
        // Hoard's emptiness threshold: a cache keeps at most one spare
        // superblock per class; the rest return to the pool so memory
        // consumption stays bounded under producer/consumer patterns.
        removeFromList(o->partial[cls], sb);
        std::lock_guard<std::mutex> g(poolMu_);
        owner_[sb].store(nullptr, std::memory_order_release);
        pushFreePool(sb);
        sbObs().transfers.add(1);
    }
}

void
SuperblockHeap::freeInPoolLocked(uint32_t sb, void **pptr)
{
    const size_t cls = freeInSb(pptr, *poolRedo_);
    SbIndex &ix = index_[sb];
    if (!ix.listed) {
        pushList(poolPartial_[cls], sb);
    } else if (ix.freeBlocks == ix.blocks) {
        removeFromList(poolPartial_[cls], sb);
        pushFreePool(sb);
    }
}

void
SuperblockHeap::free(void **pptr)
{
    void *p = *pptr;
    assert(owns(p));
    const auto sb = uint32_t(sbOf(p));

    if (serialized_.load(std::memory_order_acquire)) {
        TimedLock g(poolMu_);
        freeInPoolLocked(sb, pptr);
        return;
    }

    for (;;) {
        SbThreadCache *o = owner_[sb].load(std::memory_order_acquire);
        if (o == nullptr) {
            TimedLock g(poolMu_);
            if (owner_[sb].load(std::memory_order_relaxed) != nullptr)
                continue; // refilled into a cache while we waited
            freeInPoolLocked(sb, pptr);
            return;
        }
        TimedLock g(o->mu);
        if (owner_[sb].load(std::memory_order_relaxed) != o)
            continue; // migrated while we waited for the lock
        freeInCache(o, sb, pptr);
        return;
    }
}

void
SuperblockHeap::setSerialized(bool on)
{
    // Configuration-time switch: callers must quiesce the heap first
    // (the scaling benchmark flips it before spawning workers).
    if (on && !serialized_.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> g(poolMu_);
        for (auto &tcp : caches_) {
            SbThreadCache *tc = tcp.get();
            for (size_t cls = 0; cls < kNumClasses; ++cls) {
                for (const uint32_t sb : tc->partial[cls]) {
                    index_[sb].listed = false;
                    if (index_[sb].freeBlocks == index_[sb].blocks)
                        pushFreePool(sb);
                    else
                        pushList(poolPartial_[cls], sb);
                }
                tc->partial[cls].clear();
            }
        }
        for (size_t sb = 0; sb < nSb_; ++sb)
            owner_[sb].store(nullptr, std::memory_order_release);
    }
    serialized_.store(on, std::memory_order_release);
}

size_t
SuperblockHeap::threadCacheCount() const
{
    std::lock_guard<std::mutex> g(poolMu_);
    return caches_.size();
}

size_t
SuperblockHeap::pooledSuperblocks() const
{
    std::lock_guard<std::mutex> g(poolMu_);
    size_t n = poolFree_.size();
    for (const auto &l : poolPartial_)
        n += l.size();
    return n;
}

SbHeapStats
SuperblockHeap::stats() const
{
    // Reads the persistent bitmaps without locks: values are exact at a
    // quiescent point and advisory while allocations are in flight.
    SbHeapStats s;
    s.superblocks = nSb_;
    for (size_t sb = 0; sb < nSb_; ++sb) {
        const SbMeta &m = meta_[sb];
        if (m.sizeClass == 0)
            continue;
        s.superblocks_assigned++;
        size_t used = 0;
        for (size_t w = 0; w < kBitmapWords; ++w)
            used += size_t(std::popcount(m.bitmap[w]));
        s.blocks_allocated += used;
        s.bytes_allocated += used * classBlockSize(size_t(m.sizeClass) - 1);
    }
    return s;
}

} // namespace mnemosyne::heap
