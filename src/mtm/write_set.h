/**
 * @file
 * Cache-friendly transaction-local containers for the STM fast path.
 *
 * The barriers in txn.cc run on every instrumented load and store, so
 * their data structures dominate transaction cost once the SCM latency
 * model is factored out.  `std::unordered_map` (the original write set
 * and lock map) costs a heap node per insert, a pointer chase per
 * probe, and a full rehash pass per clear.  DenseMap replaces it with:
 *
 *  - a dense item array in insertion order (contiguous, no per-insert
 *    allocation once warm, cheap to iterate for commit/rollback);
 *  - an open-addressed, linear-probed index of generation-stamped
 *    slots.  clear() just bumps the generation, so descriptor reuse
 *    across transactions is O(1) regardless of how large an earlier
 *    transaction grew the table.
 *
 * The write set is a DenseMap keyed by word address.  Read barriers
 * probe it only for lines whose stripe lock the transaction holds (a
 * transaction holds a stripe only after writing into a line it
 * covers), so reads of lines it never wrote cost no probe at all.
 *
 * Neither container supports erase — transactions only ever add to
 * their write/read/lock sets and then discard them wholesale.
 */

#ifndef MNEMOSYNE_MTM_WRITE_SET_H_
#define MNEMOSYNE_MTM_WRITE_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mnemosyne::mtm {

/**
 * Open-addressed insertion-ordered map for transaction-local state.
 * Keys are word addresses or lock-slot pointers cast to uintptr_t;
 * key 0 is valid (occupancy lives in the slot stamps, not the keys).
 */
template <typename Value>
class DenseMap
{
  public:
    struct Item {
        uintptr_t key;
        Value val;
    };

    DenseMap() : slots_(kInitSlots, 0), mask_(kInitSlots - 1) {}

    size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }

    /** O(1): invalidates every slot by bumping the generation; the item
     *  array keeps its capacity for the next transaction. */
    void
    clear()
    {
        items_.clear();
        if (++gen_ == 0) {
            // Generation wrapped (2^32 clears): hard-reset the stamps so
            // slots from the previous epoch cannot alias as occupied.
            std::fill(slots_.begin(), slots_.end(), uint64_t(0));
            gen_ = 1;
        }
    }

    Value *
    find(uintptr_t key)
    {
        size_t i = probeStart(key);
        for (;;) {
            const uint64_t s = slots_[i];
            if (!occupied(s))
                return nullptr;
            Item &it = items_[indexOf(s)];
            if (it.key == key)
                return &it.val;
            i = (i + 1) & mask_;
        }
    }

    const Value *
    find(uintptr_t key) const
    {
        return const_cast<DenseMap *>(this)->find(key);
    }

    /**
     * Insert @p key -> @p val if absent.  Returns the value slot and
     * whether it was inserted (false: pre-existing, value untouched).
     */
    std::pair<Value *, bool>
    insert(uintptr_t key, const Value &val)
    {
        size_t i = probeStart(key);
        for (;;) {
            const uint64_t s = slots_[i];
            if (!occupied(s))
                break;
            Item &it = items_[indexOf(s)];
            if (it.key == key)
                return {&it.val, false};
            i = (i + 1) & mask_;
        }
        if (items_.size() + 1 > (slots_.size() * 7) / 10) {
            grow();
            // Re-probe: the slot index moved with the table.
            i = probeStart(key);
            while (occupied(slots_[i]))
                i = (i + 1) & mask_;
        }
        items_.push_back(Item{key, val});
        slots_[i] = makeSlot(items_.size() - 1);
        return {&items_.back().val, true};
    }

    /** Insert or overwrite; returns true when the key was new. */
    bool
    put(uintptr_t key, const Value &val)
    {
        auto [v, inserted] = insert(key, val);
        if (!inserted)
            *v = val;
        return inserted;
    }

    /** Items in insertion order (valid until the next insert/clear). */
    const Item *begin() const { return items_.data(); }
    const Item *end() const { return items_.data() + items_.size(); }

  private:
    static constexpr size_t kInitSlots = 64;  // power of two

    static uint64_t
    hashOf(uintptr_t key)
    {
        // Multiplicative hash; low bits of word addresses are zero, so
        // mix from the top.
        return (uint64_t(key) >> 3) * 0x9e3779b97f4a7c15ULL >> 17;
    }

    size_t probeStart(uintptr_t key) const { return hashOf(key) & mask_; }

    // Slot layout: high 32 bits generation, low 32 bits item index + 1.
    bool
    occupied(uint64_t s) const
    {
        return (s >> 32) == gen_ && uint32_t(s) != 0;
    }
    static size_t indexOf(uint64_t s) { return size_t(uint32_t(s)) - 1; }
    uint64_t
    makeSlot(size_t idx) const
    {
        return (uint64_t(gen_) << 32) | uint32_t(idx + 1);
    }

    void
    grow()
    {
        slots_.assign(slots_.size() * 2, 0);
        mask_ = slots_.size() - 1;
        ++gen_;
        for (size_t n = 0; n < items_.size(); ++n) {
            size_t i = probeStart(items_[n].key);
            while (occupied(slots_[i]))
                i = (i + 1) & mask_;
            slots_[i] = makeSlot(n);
        }
    }

    std::vector<Item> items_;
    std::vector<uint64_t> slots_;
    size_t mask_;
    uint32_t gen_ = 1;
};

/** The transaction write set: word address -> buffered new value. */
using WriteSet = DenseMap<uint64_t>;

} // namespace mnemosyne::mtm

#endif // MNEMOSYNE_MTM_WRITE_SET_H_
