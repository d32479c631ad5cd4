/**
 * @file
 * Baseline log using the classical two-fence commit-record protocol.
 *
 * This is the comparison point for the tornbit RAWL in Table 6 of the
 * paper: write the data, wait for the data writes to complete with a
 * fence, then write a commit record, and wait for the commit record to
 * complete with a second fence.  Payload words are stored verbatim (the
 * full 64 bits), so no bit manipulation is needed — which is why this
 * scheme eventually beats the tornbit log for large records, at the
 * price of a second long-latency fence on every flush.
 */

#ifndef MNEMOSYNE_LOG_COMMIT_RECORD_LOG_H_
#define MNEMOSYNE_LOG_COMMIT_RECORD_LOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mnemosyne::scm {
class ScmContext;
}

namespace mnemosyne::log {

class CommitRecordLog
{
  public:
    struct Header {
        uint64_t magic;
        uint64_t capacityWords;
        uint64_t headAbs;
        uint64_t commitAbs;  ///< The durably committed tail position.
    };

    static constexpr uint64_t kMagic = 0x4d4e434d54303131ULL;

    static size_t footprint(size_t capacity_words);
    static size_t maxRecordWords(size_t capacity_words);

    static std::unique_ptr<CommitRecordLog> create(scm::ScmContext &scm,
                                                   void *mem, size_t bytes);
    static std::unique_ptr<CommitRecordLog> open(scm::ScmContext &scm,
                                                 void *mem);

    /** Append @p n payload words (not durable until flush()). */
    void append(const uint64_t *words, size_t n);
    bool tryAppend(const uint64_t *words, size_t n);

    /** Two-fence commit: fence, write commit record, fence. */
    void flush();

    void truncateAll();

    struct Cursor {
        uint64_t pos = 0;
    };
    Cursor begin() const { return Cursor{headShadow_.load(std::memory_order_acquire)}; }
    bool readRecord(Cursor &c, std::vector<uint64_t> &out) const;
    void consumeTo(Cursor c, bool do_fence = true);

    uint64_t headAbs() const { return headShadow_.load(std::memory_order_acquire); }
    uint64_t tailAbs() const { return tailShadow_.load(std::memory_order_acquire); }
    uint64_t capacityWords() const { return capacity_; }
    size_t freeWords() const;
    bool empty() const { return headAbs() == tailAbs(); }

  private:
    CommitRecordLog(scm::ScmContext &scm, Header *hdr, uint64_t *buf,
                    uint64_t capacity);

    scm::ScmContext &scm_;
    Header *hdr_;
    uint64_t *buf_;
    uint64_t capacity_;

    std::atomic<uint64_t> headShadow_{0};
    std::atomic<uint64_t> tailShadow_{0};   ///< Committed tail.
    uint64_t tail_ = 0;                     ///< Producer-private tail.
};

} // namespace mnemosyne::log

#endif // MNEMOSYNE_LOG_COMMIT_RECORD_LOG_H_
