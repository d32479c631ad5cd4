#include "log/commit_record_log.h"

#include "log/rawl.h"

#include <algorithm>
#include <cassert>
#include <thread>

#include "scm/scm.h"

namespace mnemosyne::log {

size_t
CommitRecordLog::footprint(size_t capacity_words)
{
    return sizeof(Header) + capacity_words * sizeof(uint64_t);
}

size_t
CommitRecordLog::maxRecordWords(size_t capacity_words)
{
    return capacity_words < 3 ? 0 : capacity_words - 2;
}

CommitRecordLog::CommitRecordLog(scm::ScmContext &scm, Header *hdr,
                                 uint64_t *buf, uint64_t capacity)
    : scm_(scm), hdr_(hdr), buf_(buf), capacity_(capacity)
{
}

std::unique_ptr<CommitRecordLog>
CommitRecordLog::create(scm::ScmContext &c, void *mem, size_t bytes)
{
    assert(bytes > sizeof(Header) + 4 * sizeof(uint64_t));
    auto *hdr = static_cast<Header *>(mem);
    const uint64_t capacity = (bytes - sizeof(Header)) / sizeof(uint64_t);
    auto *buf = reinterpret_cast<uint64_t *>(hdr + 1);

    Header h{kMagic, capacity, 0, 0};
    c.wtstore(hdr, &h, sizeof(h));
    c.fence();
    return std::unique_ptr<CommitRecordLog>(
        new CommitRecordLog(c, hdr, buf, capacity));
}

std::unique_ptr<CommitRecordLog>
CommitRecordLog::open(scm::ScmContext &c, void *mem)
{
    auto *hdr = static_cast<Header *>(mem);
    if (hdr->magic != kMagic)
        return nullptr;
    auto *buf = reinterpret_cast<uint64_t *>(hdr + 1);
    auto log = std::unique_ptr<CommitRecordLog>(
        new CommitRecordLog(c, hdr, buf, hdr->capacityWords));
    // Validity is bounded by the durably committed tail: anything past
    // commitAbs never committed and is simply ignored.
    log->headShadow_.store(hdr->headAbs, std::memory_order_release);
    log->tail_ = hdr->commitAbs;
    log->tailShadow_.store(hdr->commitAbs, std::memory_order_release);
    return log;
}

size_t
CommitRecordLog::freeWords() const
{
    return size_t(capacity_ - 1 -
                  (tail_ - headShadow_.load(std::memory_order_acquire)));
}

bool
CommitRecordLog::tryAppend(const uint64_t *words, size_t n)
{
    const size_t need = 1 + n;
    if (need > capacity_ - 1)
        return false;
    if (need > capacity_ - 1 -
            (tail_ - headShadow_.load(std::memory_order_acquire)))
        return false;

    uint64_t hdr_word = uint64_t(n);
    scm_.wtstore(&buf_[tail_ % capacity_], &hdr_word, sizeof(hdr_word));
    ++tail_;
    // Stream the payload verbatim in physically contiguous chunks.
    size_t done = 0;
    while (done < n) {
        const uint64_t slot = tail_ % capacity_;
        const size_t run = std::min(n - done, size_t(capacity_ - slot));
        scm_.wtstore(&buf_[slot], words + done, run * sizeof(uint64_t));
        done += run;
        tail_ += run;
    }
    return true;
}

void
CommitRecordLog::append(const uint64_t *words, size_t n)
{
    if (1 + n > capacity_ - 1)
        throw RecordTooLarge{n};
    while (!tryAppend(words, n))
        std::this_thread::yield();
}

void
CommitRecordLog::flush()
{
    scm_.fence();                           // data writes complete
    scm_.wtstoreT(&hdr_->commitAbs, tail_); // commit record
    scm_.fence();                           // commit record complete
    tailShadow_.store(tail_, std::memory_order_release);
}

void
CommitRecordLog::truncateAll()
{
    flush();
    consumeTo(Cursor{tail_});
}

bool
CommitRecordLog::readRecord(Cursor &c, std::vector<uint64_t> &out) const
{
    const uint64_t committed = tailShadow_.load(std::memory_order_acquire);
    if (c.pos >= committed)
        return false;
    const uint64_t n = buf_[c.pos % capacity_];
    assert(c.pos + 1 + n <= committed);
    out.clear();
    out.reserve(size_t(n));
    for (uint64_t i = 0; i < n; ++i)
        out.push_back(buf_[(c.pos + 1 + i) % capacity_]);
    c.pos += 1 + n;
    return true;
}

void
CommitRecordLog::consumeTo(Cursor c, bool do_fence)
{
    scm_.wtstoreT(&hdr_->headAbs, c.pos);
    if (do_fence)
        scm_.fence();
    headShadow_.store(c.pos, std::memory_order_release);
}

} // namespace mnemosyne::log
