#include "ds/phash_table.h"

#include <cstring>
#include <vector>

#include "scm/scm.h"

namespace mnemosyne::ds {

uint64_t
PHashTable::hashOf(std::string_view key)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : key) {
        h ^= uint8_t(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

PHashTable::PHashTable(Runtime &rt, const std::string &name, size_t nbuckets,
                       bool instrumented_values)
    : rt_(rt), instrumentedValues_(instrumented_values)
{
    hdr_ = static_cast<Header *>(
        rt_.regions().pstaticVar(name, sizeof(Header), nullptr));
    if (hdr_->initDone)
        return;

    auto &c = rt_.scm();
    if (hdr_->buckets == nullptr) {
        rt_.pmalloc(nbuckets * sizeof(Node *), &hdr_->buckets);
    }
    // (Re-)zero the bucket array: a crash between the allocation and
    // the initDone flag re-runs this idempotently.
    std::vector<uint8_t> zero(nbuckets * sizeof(Node *), 0);
    c.wtstore(hdr_->buckets, zero.data(), zero.size());
    c.wtstoreT(&hdr_->nbuckets, uint64_t(nbuckets));
    c.wtstoreT(&hdr_->count, uint64_t(0));
    c.fence();
    c.wtstoreT(&hdr_->initDone, uint64_t(1));
    c.fence();
}

PHashTable::Node *
PHashTable::makeNode(std::string_view key, std::string_view value)
{
    auto *node = static_cast<Node *>(
        rt_.stageAlloc(sizeof(Node) + key.size() + value.size()));
    // The node is private until linked: initialize it with streaming
    // writes; the linking transaction's commit fence makes both the
    // node image and the link durable together.
    auto &c = rt_.scm();
    Node init;
    init.next = nullptr;
    init.hash = hashOf(key);
    init.klen = uint32_t(key.size());
    init.vlen = uint32_t(value.size());
    c.wtstore(node, &init, sizeof(Node));
    if (!instrumentedValues_) {
        // Ablation mode: stream the bytes into the still-private node;
        // the linking transaction's commit fence covers them.
        c.wtstore(node->kv, key.data(), key.size());
        c.wtstore(node->kv + key.size(), value.data(), value.size());
    }
    // Otherwise the key/value bytes are written inside the transaction
    // (see put()): the paper's compiler instruments every store in the
    // atomic block, so the value is logged and written back per word.
    return node;
}

PHashTable::ChainPos
PHashTable::findTx(mtm::Txn &tx, Node **bucket, uint64_t h,
                   std::string_view key)
{
    Node *prev = nullptr;
    Node *cur = tx.readT<Node *>(bucket);
    while (cur != nullptr) {
        const uint64_t chash = tx.readT<uint64_t>(&cur->hash);
        const uint32_t cklen = tx.readT<uint32_t>(&cur->klen);
        if (chash == h && cklen == key.size()) {
            std::string k(cklen, 0);
            tx.read(k.data(), cur->kv, cklen);
            if (k == key)
                return {cur, prev};
        }
        prev = cur;
        cur = tx.readT<Node *>(&cur->next);
    }
    return {nullptr, prev};
}

bool
PHashTable::putInPlaceTx(mtm::Txn &tx, std::string_view key,
                         std::string_view value)
{
    // In-place overwrite only works when the value bytes go through the
    // transaction (redo-logged); in the streaming ablation mode the
    // node may be shared, so a raw overwrite would be non-atomic.
    if (!instrumentedValues_)
        return false;
    const uint64_t h = hashOf(key);
    Node **bucket = &hdr_->buckets[h % hdr_->nbuckets];
    ChainPos pos = findTx(tx, bucket, h, key);
    if (pos.node == nullptr ||
        tx.readT<uint32_t>(&pos.node->vlen) != value.size())
        return false;
    tx.write(pos.node->kv + key.size(), value.data(), value.size());
    return true;
}

void
PHashTable::putTx(mtm::Txn &tx, std::string_view key, std::string_view value)
{
    const uint64_t h = hashOf(key);
    Node **bucket = &hdr_->buckets[h % hdr_->nbuckets];

    ChainPos pos = findTx(tx, bucket, h, key);
    if (pos.node != nullptr && instrumentedValues_ &&
        tx.readT<uint32_t>(&pos.node->vlen) == value.size()) {
        // Same-length replace: overwrite the value in place — no
        // allocation, no free, just redo-logged value bytes.
        tx.write(pos.node->kv + key.size(), value.data(), value.size());
        return;
    }

    Node *node = makeNode(key, value);
    if (instrumentedValues_) {
        tx.write(node->kv, key.data(), key.size());
        tx.write(node->kv + key.size(), value.data(), value.size());
    }
    if (pos.node != nullptr) {
        // Replace: splice the new node in place of the old one.
        tx.writeT<Node *>(&node->next, tx.readT<Node *>(&pos.node->next));
        if (pos.prev) {
            tx.writeT<Node *>(&pos.prev->next, node);
        } else {
            tx.writeT<Node *>(bucket, node);
        }
        rt_.stageFree(tx, pos.node);
    } else {
        tx.writeT<Node *>(&node->next, tx.readT<Node *>(bucket));
        tx.writeT<Node *>(bucket, node);
        tx.writeT<uint64_t>(&hdr_->count,
                            tx.readT<uint64_t>(&hdr_->count) + 1);
    }
}

bool
PHashTable::getTx(mtm::Txn &tx, std::string_view key, std::string *value)
{
    const uint64_t h = hashOf(key);
    Node **bucket = &hdr_->buckets[h % hdr_->nbuckets];
    ChainPos pos = findTx(tx, bucket, h, key);
    if (pos.node == nullptr)
        return false;
    if (value) {
        const uint32_t vlen = tx.readT<uint32_t>(&pos.node->vlen);
        value->resize(vlen);
        tx.read(value->data(), pos.node->kv + key.size(), vlen);
    }
    return true;
}

bool
PHashTable::delTx(mtm::Txn &tx, std::string_view key)
{
    const uint64_t h = hashOf(key);
    Node **bucket = &hdr_->buckets[h % hdr_->nbuckets];
    ChainPos pos = findTx(tx, bucket, h, key);
    if (pos.node == nullptr)
        return false;
    Node *next = tx.readT<Node *>(&pos.node->next);
    if (pos.prev) {
        tx.writeT<Node *>(&pos.prev->next, next);
    } else {
        tx.writeT<Node *>(bucket, next);
    }
    tx.writeT<uint64_t>(&hdr_->count, tx.readT<uint64_t>(&hdr_->count) - 1);
    rt_.stageFree(tx, pos.node);
    return true;
}

void
PHashTable::put(std::string_view key, std::string_view value)
{
    rt_.syncThreadStaging();
    rt_.atomic([&](mtm::Txn &tx) {
        rt_.resetStaging();
        putTx(tx, key, value);
        rt_.clearAllocStaging(tx);
    });
    rt_.reapStagedFree();
}

bool
PHashTable::get(std::string_view key, std::string *value)
{
    bool found = false;
    rt_.atomic([&](mtm::Txn &tx) { found = getTx(tx, key, value); });
    return found;
}

bool
PHashTable::del(std::string_view key)
{
    rt_.syncThreadStaging();
    bool removed = false;
    rt_.atomic([&](mtm::Txn &tx) { removed = delTx(tx, key); });
    rt_.reapStagedFree();
    return removed;
}

mtm::CommitTicket
PHashTable::putAsync(std::string_view key, std::string_view value)
{
    // Fast path: try a pure in-place overwrite first.  It allocates and
    // frees nothing, so it needs no staging guard — back-to-back value
    // updates from one thread join open fence epochs without ever
    // waiting for the previous epoch to retire.
    bool inplace = false;
    mtm::CommitTicket t = rt_.atomicAsync([&](mtm::Txn &tx) {
        inplace = putInPlaceTx(tx, key, value);
    });
    if (inplace)
        return t;

    // Slow path (insert or resizing replace): staged allocation.  The
    // guard waits out this thread's previous staged async commit so the
    // raw staging-slot reads below see retired (written-back) state.
    rt_.syncThreadStaging();
    t = rt_.atomicAsync([&](mtm::Txn &tx) {
        rt_.resetStaging();
        putTx(tx, key, value);
        rt_.clearAllocStaging(tx);
    });
    rt_.noteStagedAsync(t);
    return t;
}

mtm::CommitTicket
PHashTable::delAsync(std::string_view key, bool *removed)
{
    rt_.syncThreadStaging();
    bool r = false;
    mtm::CommitTicket t =
        rt_.atomicAsync([&](mtm::Txn &tx) { r = delTx(tx, key); });
    rt_.noteStagedAsync(t);
    if (removed)
        *removed = r;
    return t;
}

size_t
PHashTable::size() const
{
    return size_t(hdr_->count);
}

} // namespace mnemosyne::ds
