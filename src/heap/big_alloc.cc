#include "heap/big_alloc.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/obs.h"
#include "scm/scm.h"

namespace mnemosyne::heap {

namespace {

size_t
alignUp(size_t v, size_t a)
{
    return (v + a - 1) & ~(a - 1);
}

constexpr uint64_t kInUseBit = 1;

} // namespace

size_t
BigAlloc::footprint(size_t usable_bytes)
{
    return sizeof(Header) + kRedoLogBytes +
           alignUp(usable_bytes + kHeaderBytes + kFooterBytes + kHeaderBytes,
                   kAlign);
}

BigAlloc::BigAlloc(Header *hdr, uint8_t *chunks, size_t chunk_bytes)
    : hdr_(hdr), base_(chunks), chunkBytes_(chunk_bytes)
{
}

uint64_t *
BigAlloc::chunkHdr(uint64_t off) const
{
    return reinterpret_cast<uint64_t *>(base_ + off);
}

uint64_t
BigAlloc::chunkSize(uint64_t off) const
{
    return *chunkHdr(off) & ~kInUseBit;
}

bool
BigAlloc::chunkInUse(uint64_t off) const
{
    return *chunkHdr(off) & kInUseBit;
}

uint64_t *
BigAlloc::chunkFooter(uint64_t off, uint64_t size) const
{
    return reinterpret_cast<uint64_t *>(base_ + off + size - kFooterBytes);
}

std::unique_ptr<BigAlloc>
BigAlloc::create(scm::ScmContext &c, void *mem, size_t bytes)
{
    assert(bytes > sizeof(Header) + kRedoLogBytes + 2 * kMinChunk);
    auto *hdr = static_cast<Header *>(mem);
    auto *log_mem = reinterpret_cast<uint8_t *>(hdr + 1);
    auto *chunks = log_mem + kRedoLogBytes;
    // Reserve one header-sized sentinel at the very end.
    const size_t chunk_bytes =
        ((bytes - sizeof(Header) - kRedoLogBytes - kHeaderBytes) / kAlign) *
        kAlign;

    // One big free chunk plus an in-use, zero-size sentinel that stops
    // forward coalescing and the recovery walk.
    const uint64_t first = uint64_t(chunk_bytes);
    c.wtstoreT(reinterpret_cast<uint64_t *>(chunks), first);
    c.wtstoreT(reinterpret_cast<uint64_t *>(chunks + chunk_bytes -
                                            kFooterBytes),
               first);
    c.wtstoreT(reinterpret_cast<uint64_t *>(chunks + chunk_bytes),
               uint64_t(kInUseBit));
    Header h{kMagic, chunk_bytes, 0, 0};
    c.wtstore(hdr, &h, sizeof(h));
    c.fence();

    auto a = std::unique_ptr<BigAlloc>(new BigAlloc(hdr, chunks,
                                                    chunk_bytes));
    a->log_ = log::Rawl::create(c, log_mem, kRedoLogBytes);
    a->redo_ = std::make_unique<log::AtomicRedo>(*a->log_);
    a->rebuildFreeList();
    return a;
}

std::unique_ptr<BigAlloc>
BigAlloc::open(scm::ScmContext &c, void *mem)
{
    auto *hdr = static_cast<Header *>(mem);
    if (hdr->magic != kMagic)
        return nullptr;
    auto *log_mem = reinterpret_cast<uint8_t *>(hdr + 1);
    auto *chunks = log_mem + kRedoLogBytes;
    auto a = std::unique_ptr<BigAlloc>(
        new BigAlloc(hdr, chunks, size_t(hdr->chunkBytes)));
    a->log_ = log::Rawl::open(c, log_mem);
    if (!a->log_)
        return nullptr;
    a->redo_ = std::make_unique<log::AtomicRedo>(*a->log_);
    a->redo_->recover();
    a->rebuildFreeList();
    return a;
}

size_t
BigAlloc::rebuildFreeList()
{
    free_.clear();
    size_t walked = 0;
    uint64_t off = 0;
    while (off < chunkBytes_) {
        const uint64_t size = chunkSize(off);
        assert(size >= kMinChunk && off + size <= chunkBytes_ &&
               "corrupt chunk chain");
        if (!chunkInUse(off))
            free_[off] = size;
        off += size;
        ++walked;
    }
    return walked;
}

bool
BigAlloc::owns(const void *p) const
{
    return p >= base_ && p < base_ + chunkBytes_;
}

size_t
BigAlloc::blockSize(const void *p) const
{
    const uint64_t off =
        uint64_t(static_cast<const uint8_t *>(p) - base_) - kHeaderBytes;
    return size_t(chunkSize(off)) - kHeaderBytes - kFooterBytes;
}

void *
BigAlloc::allocate(size_t size, void **pptr)
{
    const uint64_t need = std::max<uint64_t>(
        alignUp(size + kHeaderBytes + kFooterBytes, kAlign), kMinChunk);

    // First fit over the volatile free index.
    auto it = free_.begin();
    for (; it != free_.end(); ++it) {
        if (it->second >= need)
            break;
    }
    if (it == free_.end())
        return nullptr;
    const uint64_t off = it->first;
    const uint64_t have = it->second;

    void *payload = base_ + off + kHeaderBytes;
    log::WordWrite writes[4];
    size_t nw = 0;
    uint64_t taken = have;
    if (have - need >= kMinChunk) {
        // Split: in-use front chunk + free remainder with its footer.
        taken = need;
        const uint64_t rem_off = off + need;
        const uint64_t rem = have - need;
        writes[nw++] = {chunkHdr(rem_off), rem};
        writes[nw++] = {chunkFooter(rem_off, rem), rem};
    }
    writes[nw++] = {chunkHdr(off), taken | kInUseBit};
    writes[nw++] = {reinterpret_cast<uint64_t *>(pptr),
                    reinterpret_cast<uint64_t>(payload)};
    redo_->apply({writes, nw});

    free_.erase(it);
    if (taken < have)
        free_[off + taken] = have - taken;
    return payload;
}

void
BigAlloc::free(void **pptr)
{
    void *p = *pptr;
    assert(owns(p));
    uint64_t off = uint64_t(static_cast<uint8_t *>(p) - base_) -
                   kHeaderBytes;
    assert(chunkInUse(off) && "double free");
    uint64_t size = chunkSize(off);

    // Eager coalescing with the physical neighbours (both free-list
    // updates are volatile; only the merged header/footer words and the
    // pointer nullification need durability).
    const uint64_t next = off + size;
    if (next < chunkBytes_ && !chunkInUse(next)) {
        free_.erase(next);
        size += chunkSize(next);
    }
    if (off > 0) {
        const uint64_t prev_size =
            *reinterpret_cast<uint64_t *>(base_ + off - kFooterBytes);
        // The previous chunk's footer is only valid when it is free; its
        // free-list presence is the authoritative volatile check.
        auto pit = prev_size <= off ? free_.find(off - prev_size)
                                    : free_.end();
        if (pit != free_.end() && pit->first + pit->second == off) {
            off = pit->first;
            size += pit->second;
            free_.erase(pit);
        }
    }

    const log::WordWrite writes[] = {
        {chunkHdr(off), size},
        {chunkFooter(off, size), size},
        {reinterpret_cast<uint64_t *>(pptr), 0},
    };
    redo_->apply(writes);
    free_[off] = size;
}

BigAllocStats
BigAlloc::stats() const
{
    BigAllocStats s;
    uint64_t off = 0;
    while (off < chunkBytes_) {
        const uint64_t size = chunkSize(off);
        if (chunkInUse(off)) {
            s.chunks_in_use++;
            s.bytes_in_use += size_t(size);
        } else {
            s.chunks_free++;
            s.bytes_free += size_t(size);
        }
        off += size;
    }
    return s;
}

// ---------------------------------------------------------------------------
// StripedBigAlloc

namespace {

struct BigObs {
    obs::Counter stripe_contended{"heap.big_stripe_contended", true};
};

BigObs &
bigObs()
{
    static BigObs o;
    return o;
}

/** Stripe lock with contention accounting (cf. the superblock heap's
 *  heap.lock_contended). */
struct StripeLock {
    explicit StripeLock(std::mutex &m) : mu(m)
    {
        if (!mu.try_lock()) {
            bigObs().stripe_contended.add(1);
            mu.lock();
        }
    }
    ~StripeLock() { mu.unlock(); }
    StripeLock(const StripeLock &) = delete;
    StripeLock &operator=(const StripeLock &) = delete;

    std::mutex &mu;
};

} // namespace

size_t
StripedBigAlloc::stripesFor(size_t bytes)
{
    // One stripe per 16 MB so per-stripe capacity fragmentation stays
    // irrelevant for realistic request sizes; small arenas (all test
    // configurations) degenerate to a single stripe.
    return std::clamp<size_t>(bytes >> 24, 1, kMaxStripes);
}

std::unique_ptr<StripedBigAlloc>
StripedBigAlloc::create(scm::ScmContext &c, void *mem, size_t bytes)
{
    assert(bytes > sizeof(Header));
    const size_t n = stripesFor(bytes);
    const size_t span =
        ((bytes - sizeof(Header)) / n) & ~(BigAlloc::kAlign - 1);

    auto a = std::unique_ptr<StripedBigAlloc>(new StripedBigAlloc);
    a->base_ = reinterpret_cast<uint8_t *>(static_cast<Header *>(mem) + 1);
    a->span_ = span;
    for (size_t i = 0; i < n; ++i) {
        auto s = std::make_unique<Stripe>();
        s->alloc = BigAlloc::create(c, a->base_ + i * span, span);
        a->stripes_.push_back(std::move(s));
    }

    // Header last: a valid magic implies every stripe is formatted.
    Header h{kMagic, n, span, 0};
    c.wtstore(mem, &h, sizeof(h));
    c.fence();
    return a;
}

std::unique_ptr<StripedBigAlloc>
StripedBigAlloc::open(scm::ScmContext &c, void *mem)
{
    auto *hdr = static_cast<Header *>(mem);
    if (hdr->magic != kMagic || hdr->nStripes == 0 ||
        hdr->nStripes > kMaxStripes)
        return nullptr;
    auto a = std::unique_ptr<StripedBigAlloc>(new StripedBigAlloc);
    a->base_ = reinterpret_cast<uint8_t *>(hdr + 1);
    a->span_ = size_t(hdr->stripeSpan);
    for (size_t i = 0; i < size_t(hdr->nStripes); ++i) {
        auto s = std::make_unique<Stripe>();
        s->alloc = BigAlloc::open(c, a->base_ + i * a->span_);
        if (!s->alloc)
            return nullptr;
        a->stripes_.push_back(std::move(s));
    }
    return a;
}

size_t
StripedBigAlloc::stripeOf(const void *p) const
{
    const auto off = size_t(static_cast<const uint8_t *>(p) - base_);
    return off / span_;
}

void *
StripedBigAlloc::allocate(size_t size, void **pptr)
{
    // Home stripe by thread ordinal, falling over round-robin when the
    // home stripe has no fitting chunk.
    const size_t n = stripes_.size();
    const size_t home = obs::threadOrdinal() % n;
    for (size_t i = 0; i < n; ++i) {
        Stripe &s = *stripes_[(home + i) % n];
        StripeLock g(s.mu);
        if (void *p = s.alloc->allocate(size, pptr))
            return p;
    }
    return nullptr;
}

void
StripedBigAlloc::free(void **pptr)
{
    void *p = *pptr;
    assert(owns(p));
    Stripe &s = *stripes_[stripeOf(p)];
    StripeLock g(s.mu);
    s.alloc->free(pptr);
}

bool
StripedBigAlloc::owns(const void *p) const
{
    if (p < base_ || p >= base_ + stripes_.size() * span_)
        return false;
    return stripes_[stripeOf(p)]->alloc->owns(p);
}

size_t
StripedBigAlloc::blockSize(const void *p) const
{
    return stripes_[stripeOf(p)]->alloc->blockSize(p);
}

BigAllocStats
StripedBigAlloc::stats() const
{
    BigAllocStats total;
    for (const auto &s : stripes_) {
        StripeLock g(s->mu);
        const BigAllocStats st = s->alloc->stats();
        total.chunks_in_use += st.chunks_in_use;
        total.bytes_in_use += st.bytes_in_use;
        total.chunks_free += st.chunks_free;
        total.bytes_free += st.bytes_free;
    }
    return total;
}

size_t
StripedBigAlloc::rebuildFreeList()
{
    size_t walked = 0;
    for (auto &s : stripes_) {
        StripeLock g(s->mu);
        walked += s->alloc->rebuildFreeList();
    }
    return walked;
}

} // namespace mnemosyne::heap
