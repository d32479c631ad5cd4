#include "ds/pavl_tree.h"

#include <algorithm>
#include <cstring>

#include "scm/scm.h"

namespace mnemosyne::ds {

PAvlTree::PAvlTree(Runtime &rt, const std::string &name) : rt_(rt)
{
    hdr_ = static_cast<Header *>(
        rt_.regions().pstaticVar(name, sizeof(Header), nullptr));
}

PAvlTree::Node *
PAvlTree::makeNode(std::string_view key, std::string_view value)
{
    auto *node = static_cast<Node *>(
        rt_.stageAlloc(sizeof(Node) + key.size() + value.size()));
    auto &c = rt_.scm();
    Node init;
    init.left = nullptr;
    init.right = nullptr;
    init.height = 1;
    init.klen = uint32_t(key.size());
    init.vlen = uint32_t(value.size());
    c.wtstore(node, &init, sizeof(Node));
    // kv bytes are written transactionally by put().
    return node;
}

std::string
PAvlTree::readKey(mtm::Txn &tx, Node *n)
{
    const uint32_t klen = tx.readT<uint32_t>(&n->klen);
    std::string k(klen, 0);
    tx.read(k.data(), n->kv, klen);
    return k;
}

int
PAvlTree::cmpKey(mtm::Txn &tx, Node *n, std::string_view key)
{
    // Lazy chunked comparison: read the stored key 8 bytes at a time
    // and stop at the first differing chunk.
    const uint32_t klen = tx.readT<uint32_t>(&n->klen);
    const size_t common = std::min<size_t>(klen, key.size());
    char chunk[8];
    for (size_t off = 0; off < common; off += 8) {
        const size_t nb = std::min<size_t>(8, common - off);
        tx.read(chunk, n->kv + off, nb);
        const int c = std::memcmp(key.data() + off, chunk, nb);
        if (c != 0)
            return c;
    }
    if (key.size() == klen)
        return 0;
    return key.size() < klen ? -1 : 1;
}

uint64_t
PAvlTree::heightOf(mtm::Txn &tx, Node *n)
{
    return n ? tx.readT<uint64_t>(&n->height) : 0;
}

void
PAvlTree::fixHeight(mtm::Txn &tx, Node *n)
{
    const uint64_t hl = heightOf(tx, tx.readT<Node *>(&n->left));
    const uint64_t hr = heightOf(tx, tx.readT<Node *>(&n->right));
    tx.writeT<uint64_t>(&n->height, 1 + std::max(hl, hr));
}

PAvlTree::Node *
PAvlTree::rotateRight(mtm::Txn &tx, Node *n)
{
    Node *l = tx.readT<Node *>(&n->left);
    tx.writeT<Node *>(&n->left, tx.readT<Node *>(&l->right));
    tx.writeT<Node *>(&l->right, n);
    fixHeight(tx, n);
    fixHeight(tx, l);
    return l;
}

PAvlTree::Node *
PAvlTree::rotateLeft(mtm::Txn &tx, Node *n)
{
    Node *r = tx.readT<Node *>(&n->right);
    tx.writeT<Node *>(&n->right, tx.readT<Node *>(&r->left));
    tx.writeT<Node *>(&r->left, n);
    fixHeight(tx, n);
    fixHeight(tx, r);
    return r;
}

PAvlTree::Node *
PAvlTree::rebalance(mtm::Txn &tx, Node *n)
{
    fixHeight(tx, n);
    Node *l = tx.readT<Node *>(&n->left);
    Node *r = tx.readT<Node *>(&n->right);
    const int64_t balance =
        int64_t(heightOf(tx, l)) - int64_t(heightOf(tx, r));
    if (balance > 1) {
        if (heightOf(tx, tx.readT<Node *>(&l->left)) <
            heightOf(tx, tx.readT<Node *>(&l->right))) {
            tx.writeT<Node *>(&n->left, rotateLeft(tx, l));
        }
        return rotateRight(tx, n);
    }
    if (balance < -1) {
        if (heightOf(tx, tx.readT<Node *>(&r->right)) <
            heightOf(tx, tx.readT<Node *>(&r->left))) {
            tx.writeT<Node *>(&n->right, rotateRight(tx, r));
        }
        return rotateLeft(tx, n);
    }
    return n;
}

PAvlTree::Node *
PAvlTree::insertRec(mtm::Txn &tx, Node *n, std::string_view key,
                    Node *fresh, bool *replaced)
{
    if (n == nullptr)
        return fresh;
    const int cmp = cmpKey(tx, n, key);
    if (cmp == 0) {
        // Replace by splicing in the fresh node with n's shape.
        tx.writeT<Node *>(&fresh->left, tx.readT<Node *>(&n->left));
        tx.writeT<Node *>(&fresh->right, tx.readT<Node *>(&n->right));
        tx.writeT<uint64_t>(&fresh->height, tx.readT<uint64_t>(&n->height));
        rt_.stageFree(tx, n);
        *replaced = true;
        return fresh;
    }
    if (cmp < 0) {
        tx.writeT<Node *>(
            &n->left,
            insertRec(tx, tx.readT<Node *>(&n->left), key, fresh, replaced));
    } else {
        tx.writeT<Node *>(
            &n->right,
            insertRec(tx, tx.readT<Node *>(&n->right), key, fresh,
                      replaced));
    }
    return rebalance(tx, n);
}

void
PAvlTree::put(std::string_view key, std::string_view value)
{
    rt_.atomic([&](mtm::Txn &tx) {
        rt_.resetStaging();
        Node *fresh = makeNode(key, value);
        tx.write(fresh->kv, key.data(), key.size());
        tx.write(fresh->kv + key.size(), value.data(), value.size());
        bool replaced = false;
        Node *root = insertRec(tx, tx.readT<Node *>(&hdr_->root), key,
                               fresh, &replaced);
        tx.writeT<Node *>(&hdr_->root, root);
        if (!replaced) {
            tx.writeT<uint64_t>(&hdr_->count,
                                tx.readT<uint64_t>(&hdr_->count) + 1);
        }
        rt_.clearAllocStaging(tx);
    });
    rt_.reapStagedFree();
}

bool
PAvlTree::get(std::string_view key, std::string *value)
{
    bool found = false;
    rt_.atomic([&](mtm::Txn &tx) {
        found = false;
        Node *n = tx.readT<Node *>(&hdr_->root);
        while (n != nullptr) {
            const int cmp = cmpKey(tx, n, key);
            if (cmp == 0) {
                if (value) {
                    const uint32_t vlen = tx.readT<uint32_t>(&n->vlen);
                    const uint32_t klen = tx.readT<uint32_t>(&n->klen);
                    value->resize(vlen);
                    tx.read(value->data(), n->kv + klen, vlen);
                }
                found = true;
                return;
            }
            n = (cmp < 0) ? tx.readT<Node *>(&n->left)
                          : tx.readT<Node *>(&n->right);
        }
    });
    return found;
}

PAvlTree::Node *
PAvlTree::extractMin(mtm::Txn &tx, Node *n, Node **min)
{
    Node *l = tx.readT<Node *>(&n->left);
    if (l == nullptr) {
        *min = n;
        return tx.readT<Node *>(&n->right);
    }
    tx.writeT<Node *>(&n->left, extractMin(tx, l, min));
    return rebalance(tx, n);
}

PAvlTree::Node *
PAvlTree::eraseRec(mtm::Txn &tx, Node *n, std::string_view key,
                   bool *removed)
{
    if (n == nullptr)
        return nullptr;
    const int cmp = cmpKey(tx, n, key);
    if (cmp == 0) {
        *removed = true;
        rt_.stageFree(tx, n);
        Node *l = tx.readT<Node *>(&n->left);
        Node *r = tx.readT<Node *>(&n->right);
        if (l == nullptr)
            return r;
        if (r == nullptr)
            return l;
        Node *min = nullptr;
        Node *r2 = extractMin(tx, r, &min);
        tx.writeT<Node *>(&min->left, l);
        tx.writeT<Node *>(&min->right, r2);
        return rebalance(tx, min);
    }
    if (cmp < 0) {
        tx.writeT<Node *>(
            &n->left,
            eraseRec(tx, tx.readT<Node *>(&n->left), key, removed));
    } else {
        tx.writeT<Node *>(
            &n->right,
            eraseRec(tx, tx.readT<Node *>(&n->right), key, removed));
    }
    return rebalance(tx, n);
}

bool
PAvlTree::del(std::string_view key)
{
    bool removed = false;
    rt_.atomic([&](mtm::Txn &tx) {
        removed = false;
        Node *root =
            eraseRec(tx, tx.readT<Node *>(&hdr_->root), key, &removed);
        tx.writeT<Node *>(&hdr_->root, root);
        if (removed) {
            tx.writeT<uint64_t>(&hdr_->count,
                                tx.readT<uint64_t>(&hdr_->count) - 1);
        }
    });
    rt_.reapStagedFree();
    return removed;
}

size_t
PAvlTree::size() const
{
    return size_t(hdr_->count);
}

size_t
PAvlTree::height()
{
    size_t h = 0;
    rt_.atomic([&](mtm::Txn &tx) {
        h = size_t(heightOf(tx, tx.readT<Node *>(&hdr_->root)));
    });
    return h;
}

void
PAvlTree::visitRec(mtm::Txn &tx, Node *n,
                   const std::function<void(std::string_view,
                                            std::string_view)> &fn,
                   std::string &kbuf, std::string &vbuf)
{
    if (n == nullptr)
        return;
    visitRec(tx, tx.readT<Node *>(&n->left), fn, kbuf, vbuf);
    const uint32_t klen = tx.readT<uint32_t>(&n->klen);
    const uint32_t vlen = tx.readT<uint32_t>(&n->vlen);
    kbuf.resize(klen);
    vbuf.resize(vlen);
    tx.read(kbuf.data(), n->kv, klen);
    tx.read(vbuf.data(), n->kv + klen, vlen);
    fn(kbuf, vbuf);
    visitRec(tx, tx.readT<Node *>(&n->right), fn, kbuf, vbuf);
}

void
PAvlTree::forEach(
    const std::function<void(std::string_view, std::string_view)> &fn)
{
    rt_.atomic([&](mtm::Txn &tx) {
        std::string kbuf, vbuf;
        visitRec(tx, tx.readT<Node *>(&hdr_->root), fn, kbuf, vbuf);
    });
}

} // namespace mnemosyne::ds
