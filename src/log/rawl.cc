#include "log/rawl.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "obs/hdr_histogram.h"
#include "obs/obs.h"
#include "scm/scm.h"

namespace mnemosyne::log {

namespace {

/** Registry-backed event counts for every Rawl in the process.  Kept as
 *  a function-local static so the registry (also a function-local
 *  static) is guaranteed to outlive them. */
struct RawlCounters {
    obs::Counter appends{"rawl.appends"};
    obs::Counter append_words{"rawl.append_words"};
    obs::Counter append_stalls{"rawl.append_stalls"};
    obs::Counter pass_flips{"rawl.pass_flips"};
    obs::Counter flushes{"rawl.flushes"};
    obs::Counter truncations{"rawl.truncations"};
    /** Full-log stall latency: HDR-bucketed (~3% relative error) so a
     *  truncation-policy change shows up in p99, not just the mean. */
    obs::HdrHistogram append_stall_ns{"rawl.append_stall_ns"};
};

RawlCounters &
ctrs()
{
    static RawlCounters c;
    return c;
}

} // namespace

size_t
Rawl::footprint(size_t capacity_words)
{
    return sizeof(Header) + capacity_words * sizeof(uint64_t);
}

size_t
Rawl::maxRecordWords(size_t capacity_words)
{
    // An append of n payload words needs 1 + ceil(64n/63) slots and the
    // buffer keeps one slot free: solve for the largest n that fits.
    if (capacity_words < 4)
        return 0;
    const size_t usable = capacity_words - 2; // header slot + reserve slot
    return usable * 63 / 64;
}

Rawl::Rawl(scm::ScmContext &scm, Header *hdr, uint64_t *buf,
           uint64_t capacity)
    : scm_(scm), hdr_(hdr), buf_(buf), capacity_(capacity)
{
}

std::unique_ptr<Rawl>
Rawl::create(void *mem, size_t bytes)
{
    return create(scm::ctx(), mem, bytes);
}

std::unique_ptr<Rawl>
Rawl::create(scm::ScmContext &c, void *mem, size_t bytes)
{
    assert(bytes > sizeof(Header) + 4 * sizeof(uint64_t));
    auto *hdr = static_cast<Header *>(mem);
    const uint64_t capacity = (bytes - sizeof(Header)) / sizeof(uint64_t);
    auto *buf = reinterpret_cast<uint64_t *>(hdr + 1);

    // Zero words carry torn bit 0, which is invalid for the first pass
    // (expected parity 1): the whole buffer starts out as filler.
    std::vector<uint64_t> zeros(std::min<uint64_t>(capacity, 8192), 0);
    for (uint64_t i = 0; i < capacity; i += zeros.size()) {
        const uint64_t n = std::min<uint64_t>(zeros.size(), capacity - i);
        c.wtstore(&buf[i], zeros.data(), n * sizeof(uint64_t));
    }
    Header h{kMagic, capacity, 0, 0};
    c.wtstore(hdr, &h, sizeof(h));
    c.fence();

    return std::unique_ptr<Rawl>(new Rawl(c, hdr, buf, capacity));
}

bool
Rawl::wordValidAt(uint64_t abs_pos) const
{
    const uint64_t w = buf_[abs_pos % capacity_];
    return (w >> 63) == parityAt(abs_pos);
}

uint64_t
Rawl::payloadAt(uint64_t abs_pos) const
{
    return buf_[abs_pos % capacity_] & kPayloadMask;
}

std::unique_ptr<Rawl>
Rawl::open(scm::ScmContext &c, void *mem)
{
    auto *hdr = static_cast<Header *>(mem);
    if (hdr->magic != kMagic)
        return nullptr;
    const uint64_t capacity = hdr->capacityWords;
    auto *buf = reinterpret_cast<uint64_t *>(hdr + 1);
    auto log = std::unique_ptr<Rawl>(new Rawl(c, hdr, buf, capacity));

    const uint64_t head = hdr->headAbs;
    // Torn-bit scan: accept words while the torn bit matches the pass
    // parity; stop at the first out-of-sequence word (end of log or
    // partial write, Figure 2).
    uint64_t scan = head;
    while (scan - head < capacity - 1 && log->wordValidAt(scan))
        ++scan;

    // Keep only whole records: a trailing append whose header promises
    // more words than scanned is a torn append and is discarded.
    uint64_t tail = head;
    while (tail < scan) {
        const uint64_t n = log->payloadAt(tail);
        const uint64_t rec = wordsForAppend(size_t(n));
        if (n > maxRecordWords(capacity) || tail + rec > scan)
            break;
        tail += rec;
    }

    // Restore the filler invariant over the free region so stale words
    // from an earlier crash in the same pass cannot alias as valid.
    log->fillInvalid(tail, head + capacity);

    log->headShadow_.store(head, std::memory_order_release);
    log->tail_ = tail;
    log->tailShadow_.store(tail, std::memory_order_release);
    log->flushedShadow_.store(tail, std::memory_order_release);
    return log;
}

void
Rawl::fillInvalid(uint64_t from_abs, uint64_t to_abs)
{
    std::vector<uint64_t> chunk;
    uint64_t p = from_abs;
    while (p < to_abs) {
        // Batch physically contiguous runs with constant parity.
        const uint64_t slot = p % capacity_;
        const uint64_t run_physical = capacity_ - slot;
        const uint64_t run_parity = capacity_ - (p % capacity_);
        uint64_t run =
            std::min({to_abs - p, run_physical, run_parity, uint64_t(8192)});
        const uint64_t filler = (parityAt(p) ^ 1) << 63;
        chunk.assign(size_t(run), filler);
        scm_.wtstore(&buf_[slot], chunk.data(),
                     size_t(run) * sizeof(uint64_t));
        p += run;
    }
    scm_.fence();
}

size_t
Rawl::freeWords() const
{
    const uint64_t used =
        tailShadow_.load(std::memory_order_acquire) -
        headShadow_.load(std::memory_order_acquire);
    return size_t(capacity_ - 1 - used);
}

bool
Rawl::tryAppend(const uint64_t *words, size_t n)
{
    const size_t need = wordsForAppend(n);
    if (need > capacity_ - 1)
        throw RecordTooLarge{n};
    if (need > capacity_ - 1 -
            (tail_ - headShadow_.load(std::memory_order_acquire))) {
        ctrs().append_stalls.add(1);
        return false;
    }

    // Form the torn-bit words in a staging buffer: treat the incoming
    // 64-bit words as a stream of bits and cut it into 63-bit payloads
    // (paper, section 4.4).  This bit manipulation is the CPU cost that
    // makes the tornbit scheme lose to a commit record for very large
    // records (Table 6).
    stage_.clear();
    stage_.push_back((uint64_t(n) & kPayloadMask) |
                     (parityAt(tail_) << 63));
    unsigned __int128 acc = 0;
    unsigned bits = 0;
    for (size_t i = 0; i < n; ++i) {
        acc |= (unsigned __int128)words[i] << bits;
        bits += 64;
        while (bits >= 63) {
            stage_.push_back((uint64_t(acc) & kPayloadMask) |
                             (parityAt(tail_ + stage_.size()) << 63));
            acc >>= 63;
            bits -= 63;
        }
    }
    if (bits > 0)
        stage_.push_back((uint64_t(acc) & kPayloadMask) |
                         (parityAt(tail_ + stage_.size()) << 63));

    // Stream the staged words out in physically contiguous chunks.  In
    // epoch (group-commit) mode the words go through cached stores
    // instead: the combiner flushes their lines on this producer's
    // behalf, and shared flush claims let the combiner's single fence
    // retire them — a wtstore stream would only retire under the
    // producer's OWN fence, which epoch mode never issues.
    size_t done = 0;
    while (done < stage_.size()) {
        const uint64_t slot = (tail_ + done) % capacity_;
        const size_t run =
            std::min(stage_.size() - done, size_t(capacity_ - slot));
        if (cachedAppends_)
            scm_.store(&buf_[slot], stage_.data() + done,
                       run * sizeof(uint64_t));
        else
            scm_.wtstore(&buf_[slot], stage_.data() + done,
                         run * sizeof(uint64_t));
        done += run;
    }
    const uint64_t old_tail = tail_;
    tail_ += stage_.size();
    tailShadow_.store(tail_, std::memory_order_release);
    ctrs().appends.add(1);
    ctrs().append_words.add(stage_.size());
    if (old_tail / capacity_ != tail_ / capacity_)
        ctrs().pass_flips.add(1);
    return true;
}

void
Rawl::append(const uint64_t *words, size_t n)
{
    if (tryAppend(words, n)) [[likely]]
        return;

    // Full log ("program threads may stall until there is free log
    // space"): nudge the consumer, then wait with bounded backoff — a
    // short burst of yields for the common quick-drain case, escalating
    // to capped sleeps so a stalled producer does not burn a core while
    // the truncator works through a deep backlog.
    const uint64_t t0 = obs::enabled() ? obs::nowNs() : 0;
    uint64_t sleep_us = 0;
    int spins = 0;
    for (;;) {
        if (spaceWaiter_)
            spaceWaiter_();
        if (spins < 64) {
            ++spins;
            std::this_thread::yield();
        } else {
            sleep_us = sleep_us == 0
                           ? 1
                           : std::min<uint64_t>(sleep_us * 2, 500);
            std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
        }
        if (tryAppend(words, n))
            break;
    }
    if (t0)
        ctrs().append_stall_ns.record(obs::nowNs() - t0);
}

void
Rawl::flush()
{
    scm_.fence();
    flushedShadow_.store(tail_, std::memory_order_release);
    ctrs().flushes.add(1);
}

void
Rawl::linesFor(uint64_t from_abs, uint64_t to_abs,
               std::vector<uintptr_t> &out) const
{
    constexpr uintptr_t kLine = 64;
    uintptr_t last = 0;
    bool have_last = false;
    for (uint64_t p = from_abs; p < to_abs;) {
        const uint64_t slot = p % capacity_;
        const uintptr_t line =
            reinterpret_cast<uintptr_t>(&buf_[slot]) & ~(kLine - 1);
        if (!have_last || line != last) {
            out.push_back(line);
            last = line;
            have_last = true;
        }
        // Jump to the first word past this cache line (wrap-aware).
        const uint64_t words_in_line =
            (line + kLine - reinterpret_cast<uintptr_t>(&buf_[slot])) /
            sizeof(uint64_t);
        const uint64_t step = std::min<uint64_t>(
            {words_in_line, capacity_ - slot, to_abs - p});
        p += step;
    }
}

void
Rawl::publishFlushed(uint64_t abs)
{
    uint64_t cur = flushedShadow_.load(std::memory_order_relaxed);
    while (cur < abs &&
           !flushedShadow_.compare_exchange_weak(
               cur, abs, std::memory_order_release,
               std::memory_order_relaxed)) {
    }
    ctrs().flushes.add(1);
}

void
Rawl::truncateAll()
{
    // Everything currently appended is dropped; readers restart at tail.
    flush();
    consumeTo(Cursor{tail_});
}

bool
Rawl::readRecord(Cursor &c, std::vector<uint64_t> &out) const
{
    const uint64_t flushed = flushedShadow_.load(std::memory_order_acquire);
    if (c.pos >= flushed)
        return false;
    const uint64_t n = payloadAt(c.pos);
    const uint64_t rec = wordsForAppend(size_t(n));
    assert(c.pos + rec <= flushed && "torn framing inside flushed extent");

    out.clear();
    out.reserve(size_t(n));
    unsigned __int128 acc = 0;
    unsigned bits = 0;
    uint64_t pos = c.pos + 1;
    for (uint64_t produced = 0; produced < n;) {
        acc |= (unsigned __int128)payloadAt(pos++) << bits;
        bits += 63;
        while (bits >= 64 && produced < n) {
            out.push_back(uint64_t(acc));
            acc >>= 64;
            bits -= 64;
            ++produced;
        }
    }
    c.pos += rec;
    return true;
}

void
Rawl::consumeTo(Cursor c, bool do_fence)
{
    scm_.wtstoreT(&hdr_->headAbs, c.pos);
    if (do_fence)
        scm_.fence();
    headShadow_.store(c.pos, std::memory_order_release);
    ctrs().truncations.add(1);
}

} // namespace mnemosyne::log
