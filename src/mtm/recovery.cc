#include "mtm/recovery.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mtm/redo_codec.h"
#include "mtm/txn.h"
#include "scm/scm.h"

namespace mnemosyne::mtm {

namespace {

struct ReplayTxn {
    uint64_t ts;
    std::vector<std::pair<uint64_t, uint64_t>> writes; // (addr, val)
};

/** One epoch marker: [kTagEpoch, epoch, n, (slot, to_abs, ts) x n]. */
struct Marker {
    uint64_t epoch;
    struct MemberRef {
        uint64_t slot;
        uint64_t toAbs;
        uint64_t ts;
    };
    std::vector<MemberRef> members;
};

} // namespace

RecoveryResult
recoverTransactions(log::LogManager &logs, uintptr_t va_base)
{
    RecoveryResult res;
    std::vector<ReplayTxn> committed;        // plain kTagCommit txns
    std::vector<ReplayTxn> epochTxns;        // kTagCommitEpoch txns
    std::vector<Marker> markers;
    // Per-slot surviving epoch-record timestamps and durable head, for
    // the epoch completeness check.
    std::unordered_map<uint64_t, std::unordered_set<uint64_t>> slotEpochTs;
    std::unordered_map<uint64_t, uint64_t> slotHead;

    logs.forEachActive([&](size_t slot, log::Rawl &log) {
        slotHead[slot] = log.headAbs();
        // Group-commit records were never producer-flushed; recovery
        // must scan the full torn-bit-valid extent, not just the
        // volatile flushed watermark (which open() conservatively set
        // to the scan end anyway — this keeps that contract explicit).
        auto cur = log.begin();
        std::vector<uint64_t> rec;
        std::vector<std::pair<uint64_t, uint64_t>> pending;
        while (log.readRecord(cur, rec)) {
            if (rec.empty())
                continue;
            if (rec[0] == kTagCommit && rec.size() >= 2) {
                // Staged commit record: [kTagCommit, ts, (addr, val)...].
                // Any `pending` pairs are spilled chunks of the same
                // (oversized) transaction and come first in replay order.
                for (size_t i = 2; i + 1 < rec.size(); i += 2)
                    pending.emplace_back(rec[i], rec[i + 1]);
                committed.push_back(ReplayTxn{rec[1], std::move(pending)});
                pending.clear();
            } else if (rec[0] == kTagCommitEpoch && rec.size() >= 2) {
                // Group-commit record: same shape, but replay is gated
                // on its epoch's marker proving the batch fence
                // happened (whole-epoch all-or-nothing).
                for (size_t i = 2; i + 1 < rec.size(); i += 2)
                    pending.emplace_back(rec[i], rec[i + 1]);
                slotEpochTs[slot].insert(rec[1]);
                epochTxns.push_back(ReplayTxn{rec[1], std::move(pending)});
                pending.clear();
            } else if (redo::isV2(rec[0])) {
                // Compact (v2) record: varint run-length address
                // stream, decoded against the region base.  Same
                // replay semantics as its v1 twin — the epoch-tagged
                // variant is gated on its epoch's marker.  RAWL
                // framing is whole-record, so a surviving record
                // decodes wholly; a decode failure is treated like a
                // torn tail and discarded.
                const bool epoch_rec = redo::isV2Epoch(rec[0]);
                uint64_t ts = 0;
                if (!redo::decodeV2(va_base, rec.data(), rec.size(), ts,
                                    pending)) {
                    res.torn_discarded++;
                    pending.clear();
                    continue;
                }
                if (epoch_rec) {
                    slotEpochTs[slot].insert(ts);
                    epochTxns.push_back(ReplayTxn{ts, std::move(pending)});
                } else {
                    committed.push_back(ReplayTxn{ts, std::move(pending)});
                }
                pending.clear();
            } else if (rec[0] == kTagEpoch && rec.size() >= 3) {
                // Epoch marker (marker log).  RAWL framing is whole-
                // record, so a surviving marker is never short; the
                // size check is defensive.
                Marker m;
                m.epoch = rec[1];
                const uint64_t n = rec[2];
                if (rec.size() >= 3 + 3 * n) {
                    for (uint64_t i = 0; i < n; ++i) {
                        m.members.push_back(Marker::MemberRef{
                            rec[3 + 3 * i], rec[3 + 3 * i + 1],
                            rec[3 + 3 * i + 2]});
                    }
                    markers.push_back(std::move(m));
                }
            } else if (rec[0] == kTagAbort) {
                res.aborted_discarded++;
                pending.clear();
            } else {
                // A batched write record: (addr, val) pairs.
                for (size_t i = 0; i + 1 < rec.size(); i += 2)
                    pending.emplace_back(rec[i], rec[i + 1]);
            }
        }
        if (!pending.empty())
            res.torn_discarded++;
    });

    // Whole-epoch atomicity: an epoch is COMPLETE iff, for every member
    // named by its marker, either the member's record survives in its
    // slot (same ts) or the slot's durable head has passed the record
    // (consumed, which implies the epoch retired and the data is in
    // place), or the slot is gone (released only after truncation).
    // Replay the largest complete PREFIX of surviving markers and drop
    // everything after: markers are appended in epoch order and sealed
    // strictly one at a time, so an incomplete epoch means its fence
    // (and every later epoch's) never retired.
    std::sort(markers.begin(), markers.end(),
              [](const Marker &a, const Marker &b) {
                  return a.epoch < b.epoch;
              });
    std::unordered_set<uint64_t> fencedTs;
    for (const auto &m : markers) {
        bool complete = true;
        for (const auto &ref : m.members) {
            auto head = slotHead.find(ref.slot);
            if (head == slotHead.end())
                continue; // slot released: consumed before release
            if (head->second >= ref.toAbs)
                continue; // consumed: provably retired
            auto ts_set = slotEpochTs.find(ref.slot);
            if (ts_set != slotEpochTs.end() && ts_set->second.count(ref.ts))
                continue; // record survives wholly
            complete = false;
            break;
        }
        if (!complete)
            break;
        for (const auto &ref : m.members)
            fencedTs.insert(ref.ts);
    }

    size_t epoch_kept = 0;
    for (auto &txn : epochTxns) {
        if (fencedTs.count(txn.ts)) {
            committed.push_back(std::move(txn));
            ++epoch_kept;
        } else {
            // Un-fenced epoch (or never sealed): dropped atomically
            // with every sibling — no torn batch replays.
            res.unfenced_epoch_discarded++;
        }
    }
    res.epoch_replayed = epoch_kept;

    // Replay in counter order so later transactions' values win.
    std::sort(committed.begin(), committed.end(),
              [](const ReplayTxn &a, const ReplayTxn &b) {
                  return a.ts < b.ts;
              });

    auto &c = logs.scm();
    for (const auto &txn : committed) {
        for (const auto &[addr, val] : txn.writes) {
            uint64_t v = val;
            c.wtstore(reinterpret_cast<void *>(addr), &v, sizeof(v));
        }
        res.max_ts = std::max(res.max_ts, txn.ts);
    }
    c.fence();
    res.committed_replayed = committed.size();

    logs.forEachActive([&](size_t, log::Rawl &log) { log.truncateAll(); });
    return res;
}

} // namespace mnemosyne::mtm
