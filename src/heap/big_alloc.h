/**
 * @file
 * Boundary-tag allocator for large blocks (the dlmalloc fallback of
 * paper section 4.3).
 *
 * Mnemosyne routes requests larger than the superblock classes to a
 * dlmalloc-style allocator chosen for its scalability to large block
 * sizes; the paper modified it only "to add logging to ensure
 * allocations are atomic".  This implementation does the same: chunk
 * headers/footers are persistent, the free list is volatile and rebuilt
 * by walking the chunks at startup, and every allocate/free applies its
 * handful of word writes through an AtomicRedo record.
 */

#ifndef MNEMOSYNE_HEAP_BIG_ALLOC_H_
#define MNEMOSYNE_HEAP_BIG_ALLOC_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "log/atomic_redo.h"
#include "log/rawl.h"

namespace mnemosyne::heap {

struct BigAllocStats {
    size_t chunks_in_use = 0;
    size_t bytes_in_use = 0;
    size_t chunks_free = 0;
    size_t bytes_free = 0;
};

class BigAlloc
{
  public:
    /** Chunk sizes and payloads are multiples of this. */
    static constexpr size_t kAlign = 16;
    static constexpr size_t kHeaderBytes = 16;
    static constexpr size_t kFooterBytes = 8;
    static constexpr size_t kMinChunk = 64;

    static size_t footprint(size_t usable_bytes);

    static std::unique_ptr<BigAlloc> create(scm::ScmContext &scm, void *mem,
                                            size_t bytes);
    static std::unique_ptr<BigAlloc> open(scm::ScmContext &scm, void *mem);

    /** Allocate at least @p size bytes; durably stores the address into
     *  @p pptr.  Returns nullptr if no chunk fits. */
    void *allocate(size_t size, void **pptr);

    /** Free *@p pptr (with eager coalescing) and durably nullify it. */
    void free(void **pptr);

    bool owns(const void *p) const;
    size_t blockSize(const void *p) const;

    BigAllocStats stats() const;

    /** Rebuild the volatile free list by walking the chunk headers;
     *  returns the number of chunks walked. */
    size_t rebuildFreeList();

  private:
    struct Header {
        uint64_t magic;
        uint64_t chunkBytes;
        uint64_t reserved0;
        uint64_t reserved1;
    };

    static constexpr uint64_t kMagic = 0x4d4e4249474d4c4cULL; // "MNBIGMLL"
    static constexpr size_t kRedoLogBytes = 16384;

    BigAlloc(Header *hdr, uint8_t *chunks, size_t chunk_bytes);

    uint64_t *chunkHdr(uint64_t off) const;
    uint64_t chunkSize(uint64_t off) const;
    bool chunkInUse(uint64_t off) const;
    uint64_t *chunkFooter(uint64_t off, uint64_t size) const;

    Header *hdr_;
    uint8_t *base_;         ///< Start of the chunk area.
    size_t chunkBytes_ = 0; ///< Total chunk-area bytes (excl. sentinel).

    std::unique_ptr<log::Rawl> log_;
    std::unique_ptr<log::AtomicRedo> redo_;

    /** Volatile free index: offset -> size. */
    std::map<uint64_t, uint64_t> free_;
};

/**
 * Address-range-striped big allocator: the persistent arena is split
 * into independent BigAlloc stripes, each with its own mutex and redo
 * log, so concurrent large allocations from different threads no longer
 * serialize on one free list.  A thread's home stripe is picked by its
 * obs ordinal; allocation falls over to the other stripes when the home
 * stripe cannot satisfy a request.  Frees route by address, so any
 * thread can free any block.
 *
 * The stripe count adapts to the arena size (one stripe per 16 MB,
 * capped at 8) so small arenas — including every existing test
 * configuration — keep the exact single-arena behaviour and large
 * requests are not defeated by per-stripe capacity fragmentation.
 */
class StripedBigAlloc
{
  public:
    static constexpr size_t kMaxStripes = 8;

    /** Stripes used for an arena of @p bytes. */
    static size_t stripesFor(size_t bytes);

    static std::unique_ptr<StripedBigAlloc> create(scm::ScmContext &scm,
                                                   void *mem, size_t bytes);
    static std::unique_ptr<StripedBigAlloc> open(scm::ScmContext &scm,
                                                 void *mem);

    /** Allocate at least @p size bytes; durably stores the address into
     *  @p pptr.  Returns nullptr when no stripe has a fitting chunk. */
    void *allocate(size_t size, void **pptr);

    /** Free *@p pptr (routed to its stripe by address). */
    void free(void **pptr);

    bool owns(const void *p) const;
    size_t blockSize(const void *p) const;

    BigAllocStats stats() const;

    /** Rebuild every stripe's volatile free list; returns the total
     *  number of chunks walked. */
    size_t rebuildFreeList();

    size_t stripeCount() const { return stripes_.size(); }

  private:
    struct Header {
        uint64_t magic;
        uint64_t nStripes;
        uint64_t stripeSpan;
        uint64_t reserved0;
    };

    static constexpr uint64_t kMagic = 0x4d4e424947535452ULL; // "MNBIGSTR"

    StripedBigAlloc() = default;

    size_t stripeOf(const void *p) const;

    struct Stripe {
        mutable std::mutex mu;
        std::unique_ptr<BigAlloc> alloc;
    };

    uint8_t *base_ = nullptr;   ///< First stripe's start.
    size_t span_ = 0;           ///< Bytes per stripe.
    std::vector<std::unique_ptr<Stripe>> stripes_;
};

} // namespace mnemosyne::heap

#endif // MNEMOSYNE_HEAP_BIG_ALLOC_H_
