/**
 * @file
 * The Mnemosyne runtime: one object owning every layer of Figure 1 —
 * the SCM emulator (hardware), the region manager (kernel), the region
 * layer + persistence primitives + persistent heap (libmnemosyne), and
 * the durable transaction system (libmtm).
 *
 * Constructing a Runtime performs the full reincarnation sequence of
 * section 6.3.2:
 *   1. reconstruct persistent regions (region manager + region table),
 *   2. recover the persistent heap (replay redo records, scavenge the
 *      volatile indexes),
 *   3. replay all completed but not flushed transactions in timestamp
 *      order,
 *   4. reclaim allocation staging slots (crash-safe pmalloc support).
 *
 * Destroying a Runtime is a clean shutdown; destroying the process (or
 * calling ScmContext::crash()) without it models a failure.
 */

#ifndef MNEMOSYNE_RUNTIME_RUNTIME_H_
#define MNEMOSYNE_RUNTIME_RUNTIME_H_

#include <array>
#include <chrono>
#include <memory>
#include <string>

#include "heap/pheap.h"
#include "mtm/txn_manager.h"
#include "region/pstatic.h"
#include "region/region_manager.h"
#include "region/region_table.h"
#include "scm/scm.h"

namespace mnemosyne {

struct RuntimeConfig {
    /** SCM emulator settings (latency/failure model). */
    scm::ScmConfig scm;

    /** Region manager settings; backing_dir honors MNEMOSYNE_REGION_PATH. */
    region::RegionConfig region;

    size_t static_region_bytes = 1 << 20;
    size_t small_heap_bytes = size_t(32) << 20;
    size_t big_heap_bytes = size_t(32) << 20;

    /** Serialize pmalloc/pfree on one global mutex (the pre-scaling
     *  behaviour).  Baseline mode for the thread-scaling benchmark;
     *  leave off for the per-thread Hoard caches. */
    bool heap_global_lock = false;

    mtm::TxnConfig txn;

    /**
     * The SCM emulator every layer writes through.  Null (the default):
     * the runtime creates a private context from `scm` and publishes it
     * (scm::ctx), so the "scm.*" stats keys report it.  Non-null: the
     * runtime borrows this context, which must outlive it, and publishes
     * nothing — tests and crash-sweep trials pass their own emulator.
     */
    scm::ScmContext *scm_context = nullptr;
};

/** Timings of the reincarnation steps, for the section 6.3.2 study. */
struct ReincarnationStats {
    std::chrono::nanoseconds region_reconstruct{0};
    std::chrono::nanoseconds region_remap{0};
    std::chrono::nanoseconds heap_scavenge{0};
    std::chrono::nanoseconds txn_replay{0};
    size_t replayed_txns = 0;
    size_t reclaimed_allocs = 0;
};

class Runtime
{
  public:
    explicit Runtime(RuntimeConfig cfg = {});
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    // -- persistence primitives & regions ---------------------------------

    /** The SCM emulator this runtime's layers write through; data
     *  structures issue their raw persistence primitives on it. */
    scm::ScmContext &scm() { return mgr_->scm(); }

    region::RegionLayer &regions() { return *regions_; }
    region::RegionManager &regionManager() { return *mgr_; }

    /** Paper API: create a dynamic persistent region. */
    void *
    pmap(void **persistent_slot, size_t len,
         uint64_t flags = region::kRegionDefault)
    {
        return regions_->pmap(persistent_slot, len, flags);
    }

    void punmap(void *addr, size_t len) { regions_->punmap(addr, len); }

    // -- persistent heap ---------------------------------------------------

    heap::PHeap &heap() { return *heap_; }

    /** Paper API: set *pptr to a new persistent chunk of @p size bytes. */
    void pmalloc(size_t size, void *pptr) { heap_->pmalloc(size, pptr); }

    /** Paper API: free *pptr and nullify it. */
    void pfree(void *pptr) { heap_->pfree(pptr); }

    // -- durable transactions -----------------------------------------------

    mtm::TxnManager &txns() { return *txns_; }

    /** The `atomic { ... }` construct. */
    template <typename Fn>
    void
    atomic(Fn &&fn)
    {
        txns_->atomic(std::forward<Fn>(fn));
    }

    /** Relaxed-durability `commit_async { ... }`: commits logically on
     *  return; durable once the returned ticket's fence epoch retires
     *  (wait on it, or sync()).  Requires txn.group_commit. */
    template <typename Fn>
    mtm::CommitTicket
    atomicAsync(Fn &&fn)
    {
        return txns_->atomicAsync(std::forward<Fn>(fn));
    }

    /** Block until @p t's epoch has retired. */
    void wait(mtm::CommitTicket t) { txns_->wait(t); }

    /** Durability barrier for all previously returned tickets. */
    void sync() { txns_->sync(); }

    /**
     * Crash-safe allocation for use around transactions: allocates into
     * this thread's next free persistent staging slot (up to
     * kStageSlots blocks per transaction, enough for a B+-tree split
     * chain).  Link the blocks inside a transaction and call
     * clearAllocStaging(tx) in the same transaction; if the program
     * crashes before the link commits, the next Runtime reclaims them.
     */
    void *stageAlloc(size_t size);

    /**
     * Free any blocks still staged by this thread (unlinked leftovers
     * of an aborted attempt).  Call at the start of each transaction
     * attempt that uses stageAlloc.
     */
    void resetStaging();

    /** Transactionally clear this thread's staging slots (call inside
     *  the txn that links the staged blocks). */
    void clearAllocStaging(mtm::Txn &tx);

    /** Transactionally park @p block for deferred free: record it in
     *  a grave slot inside the unlinking txn... */
    void stageFree(mtm::Txn &tx, void *block);

    /** ...then reap it after the txn committed (or let the next
     *  Runtime's recovery reap it after a crash). */
    void reapStagedFree();

    /**
     * Staged-allocation guard for relaxed-durability commits.  An
     * atomicAsync() transaction's in-place write-back is deferred to
     * epoch retirement, so after its logical commit the persistent
     * staging and grave slots still hold their PRE-transaction values:
     * a raw read (resetStaging, stageAlloc's free-slot scan,
     * reapStagedFree) would free blocks the committed transaction just
     * linked.  Any operation that touches the staging slots must
     * therefore call this first: it blocks until this thread's most
     * recent staged async commit has retired (write-back done, slots
     * are the truth again) and reaps the graves it parked.  Cheap
     * no-op when nothing is outstanding.
     */
    void syncThreadStaging();

    /** Record @p t as this thread's outstanding staged async commit so
     *  the next syncThreadStaging() waits on it.  Tickets that are
     *  already durable (epoch 0) reap the graves immediately. */
    void noteStagedAsync(mtm::CommitTicket t);

    /** Staged allocations + graves per thread.  Equal budgets so a
     *  transaction of kStageSlots independent replaces/deletes (the
     *  server's BATCH op) can park one grave per op. */
    static constexpr size_t kStageSlots = 12;
    static constexpr size_t kGraveSlots = 12;

    ReincarnationStats reincarnation() const { return reinc_; }

    const RuntimeConfig &config() const { return cfg_; }

  private:
    static constexpr size_t kMaxThreads = 64;
    static constexpr size_t kSlotsPerThread = kStageSlots + kGraveSlots;

    /** Per-thread outstanding staged async commit; only the owning
     *  thread ever touches its slot (padded to avoid false sharing). */
    struct alignas(64) StagedTicket {
        mtm::CommitTicket ticket{};
    };

    void **mySlots();   ///< kSlotsPerThread persistent pointer cells.
    size_t threadOrdinal();

    const uint64_t id_;
    std::atomic<size_t> stagingOrdinal_{0};
    RuntimeConfig cfg_;
    std::unique_ptr<scm::ScmContext> ownedScm_;
    std::unique_ptr<region::RegionManager> mgr_;
    std::unique_ptr<region::RegionLayer> regions_;
    std::unique_ptr<heap::PHeap> heap_;
    std::unique_ptr<mtm::TxnManager> txns_;
    void **staging_ = nullptr;   ///< 2*kMaxThreads persistent slots.
    std::array<StagedTicket, kMaxThreads> stagedAsync_{};
    ReincarnationStats reinc_;
    uint64_t statsSourceToken_ = 0;
};

} // namespace mnemosyne

#endif // MNEMOSYNE_RUNTIME_RUNTIME_H_
