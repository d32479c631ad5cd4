/**
 * @file
 * Log manager: a persistent registry of per-thread RAWLs.
 *
 * Mnemosyne keeps a per-thread redo log for multiprocessor scalability
 * (paper, section 5).  The log manager partitions one persistent area
 * into fixed-size slots, durably tracks which slots hold live logs, and
 * re-opens all live logs during recovery so completed transactions can
 * be replayed.
 *
 * The volatile slot bookkeeping is sharded: slot i belongs to shard
 * i mod kNumShards, each shard with its own mutex, so threads starting
 * up concurrently do not serialize on one lock while formatting their
 * (megabyte-sized) logs.  The persistent layout is untouched by the
 * sharding — it only partitions the in-memory free-slot search.
 */

#ifndef MNEMOSYNE_LOG_LOG_MANAGER_H_
#define MNEMOSYNE_LOG_LOG_MANAGER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "log/rawl.h"

namespace mnemosyne::log {

class LogManager
{
  public:
    struct Header {
        uint64_t magic;
        uint64_t nslots;
        uint64_t slotBytes;
        uint64_t reserved;
    };

    /** Durable per-slot state. */
    struct SlotState {
        uint64_t active;    ///< 0 = free, 1 = holds a live log.
        uint64_t ownerHint; ///< Informational (thread ordinal at acquire).
    };

    static constexpr uint64_t kMagic = 0x4d4e4c4f474d4752ULL;

    static size_t footprint(size_t nslots, size_t slot_bytes);

    /** Format @p mem; the manager and every log it hands out write
     *  through @p scm. */
    static std::unique_ptr<LogManager> create(scm::ScmContext &scm,
                                              void *mem, size_t bytes,
                                              size_t nslots,
                                              size_t slot_bytes);

    /** Recover: re-open every active slot's log (torn-bit scan inside). */
    static std::unique_ptr<LogManager> open(scm::ScmContext &scm, void *mem);

    /** Durably claim a free slot and return its (fresh) log.  The
     *  search starts in the shard keyed by @p owner_hint, so threads
     *  acquiring concurrently format their logs in parallel. */
    Rawl *acquire(uint64_t owner_hint = 0);

    /** Truncate and durably release a slot's log. */
    void release(Rawl *log);

    /** Visit every live log (used by recovery and async truncation).
     *  Holds one shard lock at a time while calling @p fn. */
    void forEachActive(const std::function<void(size_t slot, Rawl &)> &fn);

    /** The emulator the manager and its logs write through. */
    scm::ScmContext &scm() const { return scm_; }

    size_t nslots() const { return size_t(hdr_->nslots); }
    size_t slotBytes() const { return size_t(hdr_->slotBytes); }
    size_t activeCount() const;

    static constexpr size_t kNumShards = 4;

  private:
    LogManager(scm::ScmContext &scm, Header *hdr, SlotState *states,
               uint8_t *slots_base);

    void *slotMem(size_t i) const { return slotsBase_ + i * hdr_->slotBytes; }

    /** Claim a free slot within one shard; returns nullptr if the shard
     *  is exhausted.  Takes the shard lock inside. */
    Rawl *acquireInShard(size_t shard, uint64_t owner_hint);

    scm::ScmContext &scm_;
    Header *hdr_;
    SlotState *states_;
    uint8_t *slotsBase_;

    /** Padded so concurrently-held shard locks never share a line. */
    struct alignas(64) Shard {
        mutable std::mutex mu;
    };
    mutable std::array<Shard, kNumShards> shards_;
    size_t nShards_ = 1;    ///< min(kNumShards, nslots).

    /** Indexed by slot; null if free.  Entry i is guarded by shard
     *  i mod nShards_. */
    std::vector<std::unique_ptr<Rawl>> logs_;
};

} // namespace mnemosyne::log

#endif // MNEMOSYNE_LOG_LOG_MANAGER_H_
