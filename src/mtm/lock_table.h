/**
 * @file
 * The global versioned-lock array used for encounter-time locking
 * (paper section 5).
 *
 * "For encounter-time locking, we use a global array of volatile locks,
 * with each lock covering a portion of the address space."  The portion
 * is one 64-byte cache line — the unit every layer below the STM already
 * works in (flush, write-back, truncation dedup) — so a barrier over a
 * run of words inside one line takes one lock and one read-set entry.
 * Lines are hashed onto the array, so a slot may also cover unrelated
 * lines that collide.  Each slot is one 64-bit word in one of three
 * forms:
 *
 *  - unlocked, bit 0 clear: the upper 63 bits hold the version — the
 *    commit timestamp of the last transaction that wrote any address
 *    covered by the slot;
 *  - owner-locked, bits 1..0 = 01: bits 63..2 hold the owning
 *    transaction's id (a transaction in flight, or a synchronous commit
 *    that writes back after its own epoch wait);
 *  - retiring, bits 1..0 = 11: bits 63..2 hold a fence epoch.  A
 *    `commit_async` transaction has committed and keeps the stripe only
 *    until that epoch retires (group_commit.h); a barrier that meets
 *    the word waits for the epoch instead of aborting.
 *
 * Ownership is tested on the whole word (ownedBy), so an epoch number
 * can never pass for a transaction id.
 */

#ifndef MNEMOSYNE_MTM_LOCK_TABLE_H_
#define MNEMOSYNE_MTM_LOCK_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "scm/scm.h"

namespace mnemosyne::mtm {

class LockTable
{
  public:
    using Word = std::atomic<uint64_t>;

    explicit LockTable(size_t bits = 20)
        : shift_(64 - bits), mask_((size_t(1) << bits) - 1),
          locks_(new(std::align_val_t(64)) Word[size_t(1) << bits]())
    {
        // Contention audit: eight locks share each cache line, which is
        // intentional — the multiplicative hash below spreads adjacent
        // line stripes across the whole array, so two hot variables
        // land on the same line only by (1/2^bits-ish) accident, and
        // halving density would double the table's memory for a
        // negligible win.  What DOES matter is the array's base
        // alignment (no straddling) and keeping the table away from the
        // manager's clock/txn-id lines, hence the aligned allocation.
    }

    /** The lock covering @p addr (one stripe per cache line, hashed). */
    Word &
    lockFor(const void *addr)
    {
        return locks_[indexFor(addr)];
    }

    /** Slot index of @p addr's lock (exposed for distribution tests). */
    size_t
    indexFor(const void *addr) const
    {
        const auto a =
            reinterpret_cast<uintptr_t>(addr) / scm::kCacheLineSize;
        // Fibonacci multiplicative hash: the top `bits` product bits
        // are the best-mixed, so the shift must track the table size —
        // a fixed shift would select mid bits for any other size and
        // silently degrade stripe distribution.
        return (a * 0x9e3779b97f4a7c15ULL) >> shift_;
    }

    static bool isLocked(uint64_t v) { return v & 1; }
    static bool isRetiring(uint64_t v) { return (v & 3) == 3; }
    static bool ownedBy(uint64_t v, uint64_t id) { return v == makeLocked(id); }
    static uint64_t epoch(uint64_t v) { return v >> 2; }
    static uint64_t version(uint64_t v) { return v >> 1; }
    static uint64_t makeLocked(uint64_t owner) { return (owner << 2) | 1; }
    static uint64_t makeRetiring(uint64_t epoch) { return (epoch << 2) | 3; }
    static uint64_t makeVersion(uint64_t ts) { return ts << 1; }

    size_t size() const { return mask_ + 1; }

  private:
    struct AlignedDelete {
        void
        operator()(Word *p) const
        {
            ::operator delete[](p, std::align_val_t(64));
        }
    };

    size_t shift_;
    size_t mask_;
    std::unique_ptr<Word[], AlignedDelete> locks_;
};

} // namespace mnemosyne::mtm

#endif // MNEMOSYNE_MTM_LOCK_TABLE_H_
