/**
 * @file
 * Hoard-style persistent superblock allocator (paper section 4.3) with
 * true per-thread local heaps for multiprocessor scalability.
 *
 * The heap region is split into fixed-size superblocks (8 KB).  Each
 * superblock is assigned a block size class and carries a persistent
 * bitmap vector tracking allocated blocks; allocating memory requires
 * only one word write to SCM to set a bit in the superblock's vector.
 * Bitmap vectors are kept in a metadata area separated from the data
 * blocks to reduce the risk of corruption (following Rio Vista's
 * protection argument cited by the paper).
 *
 * Concurrency (the Hoard design the paper derives its allocator from):
 *
 *  - Every thread gets a *thread cache* holding the superblocks it owns
 *    plus a private redo log.  Allocation and same-thread free touch
 *    only cache-local state under the cache's own mutex — uncontended
 *    in steady state, so the hot path never serializes across threads.
 *  - A single locked *global pool* exists only for superblock transfer:
 *    caches refill from it when a size class runs dry and release
 *    superblocks back once they become empty (Hoard's emptiness
 *    threshold), bounding memory blowup.
 *  - Cross-thread frees lock the owning cache (found through a volatile
 *    per-superblock owner word) and return the block to its superblock,
 *    exactly as Hoard does.
 *  - On thread exit the cache's superblocks are released to the pool
 *    and the cache is parked for adoption by the next thread — thread
 *    churn neither leaks log slots nor strands partially-free
 *    superblocks (mirroring the transaction layer's log-lease
 *    recycling).
 *
 * Hoard's indexes, which speed allocation, live in volatile memory and
 * are regenerated when a program starts (the "scavenge" cost measured
 * in the reincarnation study, section 6.3.2).
 *
 * Atomicity: each allocate/free durably applies its word writes — the
 * size-class claim, the bitmap word, and the user's persistent pointer
 * — through an AtomicRedo record in the acting cache's private log, so
 * a crash leaves either the whole operation or none of it.  A
 * superblock's bitmap is only ever mutated while holding its owner's
 * mutex (or the pool mutex for pooled superblocks), and each redo
 * record's lifetime is contained in that critical section, so at crash
 * time at most one pending record across all logs touches any given
 * word and recovery may replay the logs in any order.
 */

#ifndef MNEMOSYNE_HEAP_SUPERBLOCK_HEAP_H_
#define MNEMOSYNE_HEAP_SUPERBLOCK_HEAP_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "log/atomic_redo.h"
#include "log/rawl.h"

namespace mnemosyne::heap {

/** Per-thread heap state; defined in superblock_heap.cc. */
struct SbThreadCache;

/** Statistics for introspection and the reincarnation benchmark. */
struct SbHeapStats {
    size_t superblocks = 0;
    size_t superblocks_assigned = 0;
    size_t blocks_allocated = 0;
    size_t bytes_allocated = 0;
};

class SuperblockHeap
{
  public:
    static constexpr size_t kSuperblockBytes = 8192;
    static constexpr size_t kMinBlock = 16;
    static constexpr size_t kMaxBlock = 4096;   ///< Half a superblock.
    static constexpr size_t kNumClasses = 9;    ///< 16 .. 4096, powers of 2.
    /** Bitmap words per superblock: 8192/16 = 512 blocks max = 8 words. */
    static constexpr size_t kBitmapWords = 8;
    /** Thread caches (== private redo logs); threads beyond this share
     *  caches round-robin, still correct, merely contended. */
    static constexpr size_t kNumCaches = 8;

    /** Bytes of persistent memory needed for @p n superblocks, including
     *  metadata and the embedded redo logs (one per thread cache plus
     *  one for the global pool). */
    static size_t footprint(size_t n_superblocks);

    /** Format @p mem as an empty heap whose writes go through @p scm. */
    static std::unique_ptr<SuperblockHeap> create(scm::ScmContext &scm,
                                                  void *mem, size_t bytes);

    /**
     * Recover a heap: replay any pending redo record in every log, then
     * scavenge the persistent bitmaps to rebuild the volatile indexes.
     */
    static std::unique_ptr<SuperblockHeap> open(scm::ScmContext &scm,
                                                void *mem);

    ~SuperblockHeap();

    SuperblockHeap(const SuperblockHeap &) = delete;
    SuperblockHeap &operator=(const SuperblockHeap &) = delete;

    /**
     * Allocate a block of at least @p size bytes and durably store its
     * address into @p pptr (which should live in persistent memory so
     * the allocation cannot leak across a crash).  Returns the block,
     * or nullptr if @p size is out of range or the heap is full.
     * Thread-safe; the fast path locks only the calling thread's cache.
     */
    void *allocate(size_t size, void **pptr);

    /** Free the block pointed to by *@p pptr and durably nullify it.
     *  Thread-safe; frees of blocks owned by another thread's cache
     *  lock that cache (Hoard's remote-free path). */
    void free(void **pptr);

    /** Does @p p point into this heap's data area? */
    bool owns(const void *p) const;

    /** Usable size of the block containing @p p. */
    size_t blockSize(const void *p) const;

    SbHeapStats stats() const;

    /** Rebuild the volatile indexes from the persistent bitmaps;
     *  returns the number of superblocks scanned (timed by the
     *  reincarnation benchmark).  Must be called at a quiescent point
     *  (create/open do). */
    size_t scavenge();

    /**
     * Serialized mode: route every operation through the global pool
     * under one mutex — the pre-per-thread-heap behaviour, kept as the
     * measurable baseline for the thread-scaling benchmark.
     */
    void setSerialized(bool on);
    bool serialized() const { return serialized_.load(std::memory_order_relaxed); }

    /**
     * Park the calling thread's cache: its superblocks move back to the
     * global pool and the next operation acquires a fresh cache.  Used
     * by the crash sweeper to drive transfers, orphan adoption, and
     * multi-log recovery from a single workload thread, and by tests.
     */
    void detachThreadCache();

    /** Number of thread caches ever created (tests). */
    size_t threadCacheCount() const;

    /** Superblocks currently sitting in the global pool, excluding
     *  never-assigned ones (tests). */
    size_t pooledSuperblocks() const;

  private:
    struct Header {
        uint64_t magic;
        uint64_t nSuperblocks;
        uint64_t nLogs;
        uint64_t reserved0;
    };

    /** Persistent per-superblock metadata, separated from the data. */
    struct SbMeta {
        uint64_t sizeClass;             ///< 0 = unassigned, else log2 size.
        uint64_t bitmap[kBitmapWords];  ///< 1 = block allocated.
    };

    /** Volatile per-superblock index. */
    struct SbIndex {
        uint32_t freeBlocks = 0;
        uint32_t blocks = 0;
        uint32_t listPos = 0;   ///< Position in its list (O(1) removal).
        int8_t classIdx = -1;
        bool listed = false;    ///< On some partial list (cache or pool).
    };

    static constexpr uint64_t kMagic = 0x4d4e534248503032ULL; // "MNSBHP02"
    static constexpr size_t kRedoLogBytes = 16384;
    static constexpr size_t kNumLogs = kNumCaches + 1; ///< + pool log.

    SuperblockHeap(Header *hdr, SbMeta *meta, uint8_t *data,
                   uint8_t *logs_mem);

    static size_t classIndexFor(size_t size);
    static size_t classBlockSize(size_t idx) { return kMinBlock << idx; }

    void *sbData(size_t sb) const { return data_ + sb * kSuperblockBytes; }
    size_t sbOf(const void *p) const;

    /** The calling thread's cache for this heap (creates/adopts one). */
    SbThreadCache *cacheForThread();
    SbThreadCache *acquireCacheLocked();

    /** Release a thread's interest in @p tc; when the last user leaves,
     *  the cache's superblocks go back to the pool. */
    void parkCache(SbThreadCache *tc);

    /** Pull a superblock of @p cls into @p tc (pool mutex inside).
     *  Returns false when the heap is exhausted for this class. */
    bool refill(SbThreadCache *tc, size_t cls, uint32_t *out_sb,
                bool *out_claim);

    /** Pick a free block in @p sb and durably apply the allocation
     *  through @p redo; caller holds the lock covering @p sb, and
     *  @p list is the partial list @p sb sits on (delisted on full). */
    void *allocInSb(uint32_t sb, size_t cls, bool claim, void **pptr,
                    log::AtomicRedo &redo, std::vector<uint32_t> &list);

    /** Durably clear @p pptr's block bit through @p redo and bump the
     *  free count; caller holds the lock covering the superblock.
     *  Returns the block's class index. */
    size_t freeInSb(void **pptr, log::AtomicRedo &redo);

    /** Free into a cache-owned superblock; caller holds @p o's mutex. */
    void freeInCache(SbThreadCache *o, uint32_t sb, void **pptr);

    void *allocateFromPoolLocked(size_t cls, void **pptr);
    void freeInPoolLocked(uint32_t sb, void **pptr);

    /** (Re)initialize @p sb's volatile index for class @p cls. */
    void claimIndex(uint32_t sb, size_t cls);

    // List bookkeeping; every superblock is on at most one list and
    // SbIndex::listPos makes removal O(1).
    void pushList(std::vector<uint32_t> &list, uint32_t sb);
    void pushFreePool(uint32_t sb);
    void removeFromList(std::vector<uint32_t> &list, uint32_t sb);

    friend struct SbThreadCache;

    Header *hdr_;
    SbMeta *meta_;
    uint8_t *data_;
    size_t nSb_ = 0;
    const uint64_t heapId_;

    /** All persistent logs; index i < kNumCaches backs cache i, the
     *  last one backs the pool. */
    std::vector<std::unique_ptr<log::Rawl>> logs_;
    std::unique_ptr<log::AtomicRedo> poolRedo_;

    // Volatile indexes (rebuilt by scavenge()).
    std::vector<SbIndex> index_;
    /** Owning cache per superblock; nullptr = in the global pool. */
    std::vector<std::atomic<SbThreadCache *>> owner_;

    // Global pool: the ONLY cross-thread heap lock on the normal path,
    // taken for superblock transfer and pooled-superblock frees.
    // Lock order: cache mutex before poolMu_, never the reverse.
    mutable std::mutex poolMu_;
    std::array<std::vector<uint32_t>, kNumClasses> poolPartial_;
    std::vector<uint32_t> poolFree_;     ///< Fully free, class is stale.
    std::vector<uint32_t> unassigned_;   ///< sizeClass == 0.

    std::vector<std::unique_ptr<SbThreadCache>> caches_;
    std::vector<uint32_t> parkedCaches_;   ///< Indexes ready for adoption.
    std::atomic<uint32_t> rrNext_{0};      ///< Overflow cache sharing.

    std::atomic<bool> serialized_{false};
};

} // namespace mnemosyne::heap

#endif // MNEMOSYNE_HEAP_SUPERBLOCK_HEAP_H_
