#include "log/atomic_redo.h"

#include "scm/scm.h"

namespace mnemosyne::log {

void
AtomicRedo::apply(std::span<const WordWrite> writes)
{
    auto &c = log_.scm();

    // Redo record: [addr, val] pairs.  The record append is atomic by
    // torn-bit construction; one fence makes it durable.
    scratch_.clear();
    for (const auto &w : writes) {
        scratch_.push_back(reinterpret_cast<uint64_t>(w.addr));
        scratch_.push_back(w.val);
    }
    log_.append(scratch_.data(), scratch_.size());
    log_.flush();

    // In-place application, then force it out and drop the record.  The
    // head advance itself needs no extra fence: it must merely not
    // become durable before the applied writes (this fence), and if it
    // is lost the recovery replay is idempotent.
    for (const auto &w : writes) {
        c.wtstoreT(w.addr, w.val);
    }
    c.fence();
    log_.consumeTo(log::Rawl::Cursor{log_.tailAbs()}, /*do_fence=*/false);
}

size_t
AtomicRedo::recover()
{
    auto &c = log_.scm();
    auto cur = log_.begin();
    std::vector<uint64_t> rec;
    size_t replayed = 0;
    while (log_.readRecord(cur, rec)) {
        for (size_t i = 0; i + 1 < rec.size(); i += 2) {
            c.wtstoreT(reinterpret_cast<uint64_t *>(rec[i]), rec[i + 1]);
        }
        ++replayed;
    }
    c.fence();
    log_.truncateAll();
    return replayed;
}

} // namespace mnemosyne::log
