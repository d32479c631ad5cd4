/**
 * @file
 * RAWL: the raw word log with tornbit encoding (paper section 4.4).
 *
 * A RAWL is a fixed-size single-producer/single-consumer Lamport circular
 * buffer of 64-bit words living in persistent memory.  It supports
 * consistent appends at the tail and truncation at the head without
 * locking, and it makes appends atomic with only ONE fence per flush —
 * instead of the classical two-fence commit-record protocol — using the
 * tornbit scheme:
 *
 *  - Every stored word carries 63 payload bits plus 1 torn bit.
 *  - The torn bit has the same value for all words written in one pass
 *    over the buffer and reverses sense when the log wraps around.
 *  - Streaming writes (movntq / wtstore) may complete out of order; on
 *    recovery, the log manager scans forward from the head and stops at
 *    the first word whose torn bit is out of sequence — which marks
 *    either the end of the log or a partial (torn) append.
 *
 * Framing: each append of n 64-bit payload words is stored as one header
 * word (payload = n) followed by ceil(64*n/63) words carrying the payload
 * bit-stream, so record boundaries always fall on word boundaries.
 *
 * Anti-aliasing: a slot beyond the valid tail could hold a stale word
 * from an *earlier crash in the same pass*, whose torn bit would falsely
 * read as valid.  create() and open() therefore fill the free region
 * with parity-inverted filler words, which restores the invariant that
 * every word beyond the tail scans as invalid.
 */

#ifndef MNEMOSYNE_LOG_RAWL_H_
#define MNEMOSYNE_LOG_RAWL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace mnemosyne::scm {
class ScmContext;
}

namespace mnemosyne::log {

/** Thrown when an append cannot fit even in an empty log. */
struct RecordTooLarge {
    size_t words;
};

class Rawl
{
  public:
    /** Persistent on-media layout preceding the word buffer. */
    struct Header {
        uint64_t magic;
        uint64_t capacityWords;
        uint64_t headAbs;    ///< Absolute (monotonic) position of the head.
        uint64_t reserved;
    };

    static constexpr uint64_t kMagic = 0x4d4e5241574c3031ULL; // "MNRAWL01"
    static constexpr uint64_t kPayloadMask = (uint64_t(1) << 63) - 1;

    /** Bytes of persistent memory needed for a log of @p capacity_words. */
    static size_t footprint(size_t capacity_words);

    /** Largest append (in 64-bit payload words) a log of this capacity
     *  can hold. */
    static size_t maxRecordWords(size_t capacity_words);

    /** Format @p bytes of persistent memory at @p mem as an empty log
     *  whose writes go through @p scm. */
    static std::unique_ptr<Rawl> create(scm::ScmContext &scm, void *mem,
                                        size_t bytes);

    /**
     * create() on the published context (scm::ctx).  Kept for the
     * repository benchmark's log probe (mnbench/probes.cc), which
     * publishes its emulator and predates the explicit form; library
     * code always names its context.
     */
    static std::unique_ptr<Rawl> create(void *mem, size_t bytes);

    /**
     * Recover a log from persistent memory: locate the valid extent by
     * torn-bit scan, drop any trailing partial append, and restore the
     * free-region filler invariant.
     */
    static std::unique_ptr<Rawl> open(scm::ScmContext &scm, void *mem);

    // -- producer side ----------------------------------------------------

    /**
     * Append @p n payload words.  The streaming writes are unordered and
     * NOT durable until flush().  Spins when the log is full, waiting for
     * the consumer to truncate (the paper: "program threads may stall
     * until there is free log space").
     */
    void append(const uint64_t *words, size_t n);

    /** Non-blocking append; returns false if the log is too full. */
    bool tryAppend(const uint64_t *words, size_t n);

    /**
     * Install a callback invoked while append() waits for free space —
     * the log's owner uses it to nudge the asynchronous truncator so a
     * full log drains promptly instead of waiting out the consumer's
     * poll interval.  Not thread-safe against concurrent append();
     * install before the producer thread starts using the log.
     */
    void setSpaceWaiter(std::function<void()> fn)
    {
        spaceWaiter_ = std::move(fn);
    }

    /** Block until all prior appends have reached SCM (one fence). */
    void flush();

    // -- group-commit support ---------------------------------------------
    //
    // The fence-epoch combiner (mtm/group_commit.h) makes OTHER threads
    // responsible for a producer's durability: the combiner flushes the
    // record's cache lines and retires them with one fence for a whole
    // epoch.  Write-combining streams are per-thread — only the issuing
    // thread's fence retires its wtstores — so epoch-mode appends must
    // go through ordinary cached stores, whose flushed lines any
    // thread's fence retires (the Px86 shared-flush-claim rule).

    /**
     * Switch append staging from streaming (wtstore) to cached stores.
     * Producer-side setting; install before the producer uses the log.
     */
    void setCachedAppends(bool on) { cachedAppends_ = on; }

    /**
     * Append the distinct physical cache lines backing the absolute
     * word range [@p from_abs, @p to_abs) to @p out (wrap-aware).  The
     * combiner flushes these on the producer's behalf.
     */
    void linesFor(uint64_t from_abs, uint64_t to_abs,
                  std::vector<uintptr_t> &out) const;

    /**
     * Advance the flushed watermark to @p abs (monotonic max): the
     * combiner publishes members' durability after its epoch fence.
     * Safe against a concurrent producer-side flush().
     */
    void publishFlushed(uint64_t abs);

    /** Log-manager slot index (volatile; stamped at acquire/open) —
     *  epoch markers name members by slot. */
    uint64_t slotId() const { return slotId_; }
    void setSlotId(uint64_t id) { slotId_ = id; }

    /** Drop every record in the log (head := tail), durably. */
    void truncateAll();

    // -- consumer side ----------------------------------------------------

    /** A read position; obtained from begin(), advanced by readRecord. */
    struct Cursor {
        uint64_t pos = 0;
    };

    /** Cursor at the current head. */
    Cursor begin() const { return Cursor{headShadow_.load(std::memory_order_acquire)}; }

    /**
     * Read the record at @p c into @p out and advance the cursor.
     * Returns false when the cursor has reached the flushed tail.
     * Only records made durable by flush() are visible to the consumer.
     */
    bool readRecord(Cursor &c, std::vector<uint64_t> &out) const;

    /** Durably advance the head to @p c, releasing consumed space. */
    void consumeTo(Cursor c, bool do_fence = true);

    // -- introspection ------------------------------------------------------

    uint64_t headAbs() const { return headShadow_.load(std::memory_order_acquire); }
    uint64_t tailAbs() const { return tailShadow_.load(std::memory_order_acquire); }
    uint64_t flushedAbs() const { return flushedShadow_.load(std::memory_order_acquire); }
    uint64_t capacityWords() const { return capacity_; }
    size_t freeWords() const;
    bool empty() const { return headAbs() == tailAbs(); }

    /** The emulator this log writes through. */
    scm::ScmContext &scm() const { return scm_; }

  private:
    Rawl(scm::ScmContext &scm, Header *hdr, uint64_t *buf,
         uint64_t capacity);

    /** Torn-bit value expected at absolute position @p abs_pos. */
    uint64_t
    parityAt(uint64_t abs_pos) const
    {
        return ((abs_pos / capacity_) % 2 == 0) ? 1 : 0;
    }

    /** Words needed to store an append of @p n payload words. */
    static size_t wordsForAppend(size_t n) { return 1 + (64 * n + 62) / 63; }

    void fillInvalid(uint64_t from_abs, uint64_t to_abs);
    bool wordValidAt(uint64_t abs_pos) const;
    uint64_t payloadAt(uint64_t abs_pos) const;

    scm::ScmContext &scm_;
    Header *hdr_;
    uint64_t *buf_;
    uint64_t capacity_;

    // Volatile shadows shared by producer and consumer (Lamport SPSC).
    std::atomic<uint64_t> headShadow_{0};
    std::atomic<uint64_t> tailShadow_{0};
    std::atomic<uint64_t> flushedShadow_{0};

    // Producer-private cursor (tailShadow_ published after each append).
    uint64_t tail_ = 0;
    std::vector<uint64_t> stage_;   ///< Producer-private staging buffer.
    std::function<void()> spaceWaiter_;  ///< Poked while append() stalls.
    bool cachedAppends_ = false;    ///< Epoch mode: stage via cached stores.
    uint64_t slotId_ = ~uint64_t(0);  ///< Log-manager slot index.
};

} // namespace mnemosyne::log

#endif // MNEMOSYNE_LOG_RAWL_H_
