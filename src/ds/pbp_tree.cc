#include "ds/pbp_tree.h"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "scm/scm.h"

namespace mnemosyne::ds {

PBpTree::PBpTree(Runtime &rt, const std::string &name) : rt_(rt)
{
    hdr_ = static_cast<Header *>(
        rt_.regions().pstaticVar(name, sizeof(Header), nullptr));
}

PBpTree::Node *
PBpTree::makeNode(bool leaf)
{
    auto *n = static_cast<Node *>(rt_.stageAlloc(sizeof(Node)));
    auto &c = rt_.scm();
    std::vector<uint8_t> zero(sizeof(Node), 0);
    c.wtstore(n, zero.data(), zero.size());
    const uint64_t is_leaf = leaf ? 1 : 0;
    c.wtstore(&n->isLeaf, &is_leaf, sizeof(is_leaf));
    return n;
}

void *
PBpTree::makeValue(mtm::Txn &tx, std::string_view value)
{
    auto *block = rt_.stageAlloc(sizeof(uint32_t) + value.size());
    // Written through the transaction, like every store in the paper's
    // instrumented atomic blocks.
    tx.writeT<uint32_t>(static_cast<uint32_t *>(block),
                        uint32_t(value.size()));
    if (!value.empty()) {
        tx.write(static_cast<uint8_t *>(block) + sizeof(uint32_t),
                 value.data(), value.size());
    }
    return block;
}

std::string
PBpTree::keyAt(mtm::Txn &tx, Node *n, size_t i)
{
    const uint32_t len = tx.readT<uint32_t>(&n->keys[i].len);
    std::string k(len, 0);
    tx.read(k.data(), n->keys[i].bytes, len);
    return k;
}

std::string
PBpTree::readValue(mtm::Txn &tx, void *block)
{
    const auto *p = static_cast<uint8_t *>(block);
    uint32_t len = 0;
    tx.read(&len, p, sizeof(len));
    std::string v(len, 0);
    tx.read(v.data(), p + sizeof(len), len);
    return v;
}

void
PBpTree::setKey(mtm::Txn &tx, Node *n, size_t i, std::string_view key)
{
    tx.writeT<uint32_t>(&n->keys[i].len, uint32_t(key.size()));
    if (!key.empty())
        tx.write(n->keys[i].bytes, key.data(), key.size());
}

size_t
PBpTree::childIndex(mtm::Txn &tx, Node *n, std::string_view key)
{
    const uint64_t count = tx.readT<uint64_t>(&n->n);
    size_t i = 0;
    while (i < count && keyAt(tx, n, i) <= key)
        ++i;
    return i;
}

size_t
PBpTree::leafSlot(mtm::Txn &tx, Node *n, std::string_view key, bool *found)
{
    const uint64_t count = tx.readT<uint64_t>(&n->n);
    size_t i = 0;
    *found = false;
    while (i < count) {
        const std::string k = keyAt(tx, n, i);
        if (k == key) {
            *found = true;
            return i;
        }
        if (k > key)
            return i;
        ++i;
    }
    return i;
}

void
PBpTree::insertIntoLeaf(mtm::Txn &tx, Node *leaf, size_t at,
                        std::string_view key, void *vblock)
{
    const uint64_t count = tx.readT<uint64_t>(&leaf->n);
    for (size_t j = count; j > at; --j) {
        setKey(tx, leaf, j, keyAt(tx, leaf, j - 1));
        tx.writeT<void *>(&leaf->leaf.vals[j].block,
                          tx.readT<void *>(&leaf->leaf.vals[j - 1].block));
    }
    setKey(tx, leaf, at, key);
    tx.writeT<void *>(&leaf->leaf.vals[at].block, vblock);
    tx.writeT<uint64_t>(&leaf->n, count + 1);
}

PBpTree::Node *
PBpTree::splitNode(mtm::Txn &tx, Node *node, std::string *sep)
{
    const bool leaf = tx.readT<uint64_t>(&node->isLeaf) != 0;
    Node *right = makeNode(leaf);
    const uint64_t count = tx.readT<uint64_t>(&node->n);
    const size_t half = size_t(count) / 2;

    if (leaf) {
        // Right gets keys [half, count); the separator is right's first
        // key (it stays in the leaf level).
        size_t out = 0;
        for (size_t i = half; i < count; ++i, ++out) {
            setKey(tx, right, out, keyAt(tx, node, i));
            tx.writeT<void *>(&right->leaf.vals[out].block,
                              tx.readT<void *>(&node->leaf.vals[i].block));
        }
        tx.writeT<uint64_t>(&right->n, count - half);
        tx.writeT<uint64_t>(&node->n, half);
        tx.writeT<Node *>(&right->leaf.nextLeaf,
                          tx.readT<Node *>(&node->leaf.nextLeaf));
        tx.writeT<Node *>(&node->leaf.nextLeaf, right);
        *sep = keyAt(tx, right, 0);
    } else {
        // The separator key[half] moves up; right gets keys
        // (half, count) and children (half, count].
        *sep = keyAt(tx, node, half);
        size_t out = 0;
        for (size_t i = half + 1; i < count; ++i, ++out)
            setKey(tx, right, out, keyAt(tx, node, i));
        for (size_t i = half + 1; i <= count; ++i) {
            tx.writeT<Node *>(&right->children[i - half - 1],
                              tx.readT<Node *>(&node->children[i]));
        }
        tx.writeT<uint64_t>(&right->n, count - half - 1);
        tx.writeT<uint64_t>(&node->n, half);
    }
    return right;
}

void
PBpTree::put(std::string_view key, std::string_view value)
{
    if (key.size() > kMaxKeyBytes)
        throw std::invalid_argument("PBpTree key too long");

    rt_.atomic([&](mtm::Txn &tx) {
        rt_.resetStaging();
        void *vblock = makeValue(tx, value);

        Node *root = tx.readT<Node *>(&hdr_->root);
        if (root == nullptr) {
            Node *leaf = makeNode(true);
            insertIntoLeaf(tx, leaf, 0, key, vblock);
            tx.writeT<Node *>(&hdr_->root, leaf);
            tx.writeT<uint64_t>(&hdr_->count, 1);
            rt_.clearAllocStaging(tx);
            return;
        }

        // Descend, recording the path of (internal node, child index).
        std::vector<std::pair<Node *, size_t>> path;
        Node *n = root;
        while (tx.readT<uint64_t>(&n->isLeaf) == 0) {
            const size_t i = childIndex(tx, n, key);
            path.emplace_back(n, i);
            n = tx.readT<Node *>(&n->children[i]);
        }

        bool found = false;
        size_t at = leafSlot(tx, n, key, &found);
        if (found) {
            void *old = tx.readT<void *>(&n->leaf.vals[at].block);
            tx.writeT<void *>(&n->leaf.vals[at].block, vblock);
            rt_.stageFree(tx, old);
            rt_.clearAllocStaging(tx);
            return;
        }

        if (tx.readT<uint64_t>(&n->n) < kOrder) {
            insertIntoLeaf(tx, n, at, key, vblock);
        } else {
            // Split the leaf, insert into the proper half.
            std::string sep;
            Node *right = splitNode(tx, n, &sep);
            Node *target = (key < sep) ? n : right;
            bool f2 = false;
            insertIntoLeaf(tx, target, leafSlot(tx, target, key, &f2), key,
                           vblock);

            // Propagate the separator upward.
            Node *child = right;
            bool done = false;
            for (auto it = path.rbegin(); it != path.rend(); ++it) {
                Node *p = it->first;
                size_t i = it->second;
                if (tx.readT<uint64_t>(&p->n) < kOrder) {
                    const uint64_t pc = tx.readT<uint64_t>(&p->n);
                    for (size_t j = size_t(pc); j > i; --j) {
                        setKey(tx, p, j, keyAt(tx, p, j - 1));
                        tx.writeT<Node *>(
                            &p->children[j + 1],
                            tx.readT<Node *>(&p->children[j]));
                    }
                    setKey(tx, p, i, sep);
                    tx.writeT<Node *>(&p->children[i + 1], child);
                    tx.writeT<uint64_t>(&p->n, pc + 1);
                    done = true;
                    break;
                }
                // Full internal node: split it first, then place the
                // pending separator into the correct half.
                std::string psep;
                Node *pright = splitNode(tx, p, &psep);
                Node *target_p = (sep < psep) ? p : pright;
                size_t ti = childIndex(tx, target_p, sep);
                const uint64_t tc = tx.readT<uint64_t>(&target_p->n);
                for (size_t j = size_t(tc); j > ti; --j) {
                    setKey(tx, target_p, j, keyAt(tx, target_p, j - 1));
                    tx.writeT<Node *>(
                        &target_p->children[j + 1],
                        tx.readT<Node *>(&target_p->children[j]));
                }
                setKey(tx, target_p, ti, sep);
                tx.writeT<Node *>(&target_p->children[ti + 1], child);
                tx.writeT<uint64_t>(&target_p->n, tc + 1);

                sep = psep;
                child = pright;
            }
            if (!done) {
                Node *new_root = makeNode(false);
                setKey(tx, new_root, 0, sep);
                tx.writeT<Node *>(&new_root->children[0],
                                  tx.readT<Node *>(&hdr_->root));
                tx.writeT<Node *>(&new_root->children[1], child);
                tx.writeT<uint64_t>(&new_root->n, 1);
                tx.writeT<Node *>(&hdr_->root, new_root);
            }
        }
        tx.writeT<uint64_t>(&hdr_->count,
                            tx.readT<uint64_t>(&hdr_->count) + 1);
        rt_.clearAllocStaging(tx);
    });
    rt_.reapStagedFree();
}

bool
PBpTree::get(std::string_view key, std::string *value)
{
    bool found = false;
    rt_.atomic([&](mtm::Txn &tx) {
        found = false;
        Node *n = tx.readT<Node *>(&hdr_->root);
        if (n == nullptr)
            return;
        while (tx.readT<uint64_t>(&n->isLeaf) == 0)
            n = tx.readT<Node *>(&n->children[childIndex(tx, n, key)]);
        size_t at = leafSlot(tx, n, key, &found);
        if (found && value) {
            *value =
                readValue(tx, tx.readT<void *>(&n->leaf.vals[at].block));
        }
    });
    return found;
}

bool
PBpTree::del(std::string_view key)
{
    bool removed = false;
    rt_.atomic([&](mtm::Txn &tx) {
        removed = false;
        Node *n = tx.readT<Node *>(&hdr_->root);
        if (n == nullptr)
            return;
        while (tx.readT<uint64_t>(&n->isLeaf) == 0)
            n = tx.readT<Node *>(&n->children[childIndex(tx, n, key)]);
        bool found = false;
        const size_t at = leafSlot(tx, n, key, &found);
        if (!found)
            return;
        rt_.stageFree(tx, tx.readT<void *>(&n->leaf.vals[at].block));
        const uint64_t count = tx.readT<uint64_t>(&n->n);
        for (size_t j = at; j + 1 < size_t(count); ++j) {
            setKey(tx, n, j, keyAt(tx, n, j + 1));
            tx.writeT<void *>(&n->leaf.vals[j].block,
                              tx.readT<void *>(&n->leaf.vals[j + 1].block));
        }
        tx.writeT<uint64_t>(&n->n, count - 1);
        tx.writeT<uint64_t>(&hdr_->count,
                            tx.readT<uint64_t>(&hdr_->count) - 1);
        removed = true;
    });
    rt_.reapStagedFree();
    return removed;
}

size_t
PBpTree::size() const
{
    return size_t(hdr_->count);
}

void
PBpTree::forEach(
    const std::function<void(std::string_view, std::string_view)> &fn)
{
    rt_.atomic([&](mtm::Txn &tx) {
        Node *n = tx.readT<Node *>(&hdr_->root);
        if (n == nullptr)
            return;
        while (tx.readT<uint64_t>(&n->isLeaf) == 0)
            n = tx.readT<Node *>(&n->children[0]);
        while (n != nullptr) {
            const uint64_t count = tx.readT<uint64_t>(&n->n);
            for (size_t i = 0; i < size_t(count); ++i) {
                const std::string k = keyAt(tx, n, i);
                const std::string v = readValue(
                    tx, tx.readT<void *>(&n->leaf.vals[i].block));
                fn(k, v);
            }
            n = tx.readT<Node *>(&n->leaf.nextLeaf);
        }
    });
}

size_t
PBpTree::checkRec(mtm::Txn &tx, Node *n, std::string *min, std::string *max)
{
    const uint64_t count = tx.readT<uint64_t>(&n->n);
    if (count > kOrder)
        throw std::logic_error("node overflow");
    for (size_t i = 1; i < size_t(count); ++i) {
        if (keyAt(tx, n, i - 1) >= keyAt(tx, n, i))
            throw std::logic_error("keys out of order");
    }
    if (tx.readT<uint64_t>(&n->isLeaf)) {
        if (count > 0) {
            *min = keyAt(tx, n, 0);
            *max = keyAt(tx, n, size_t(count) - 1);
        }
        return 1;
    }
    size_t depth = 0;
    for (size_t i = 0; i <= size_t(count); ++i) {
        Node *c = tx.readT<Node *>(&n->children[i]);
        if (c == nullptr)
            throw std::logic_error("null child");
        std::string cmin, cmax;
        const size_t d = checkRec(tx, c, &cmin, &cmax);
        if (depth == 0)
            depth = d;
        else if (d != depth)
            throw std::logic_error("uneven leaf depth");
        if (i > 0 && !cmin.empty() && cmin < keyAt(tx, n, i - 1))
            throw std::logic_error("child under separator");
        if (i < size_t(count) && !cmax.empty() &&
            cmax >= keyAt(tx, n, i)) {
            throw std::logic_error("child over separator");
        }
        if (i == 0 && !cmin.empty())
            *min = cmin;
        if (i == size_t(count) && !cmax.empty())
            *max = cmax;
    }
    return depth + 1;
}

size_t
PBpTree::checkInvariants()
{
    size_t h = 0;
    rt_.atomic([&](mtm::Txn &tx) {
        Node *root = tx.readT<Node *>(&hdr_->root);
        if (root == nullptr) {
            h = 0;
            return;
        }
        std::string mn, mx;
        h = checkRec(tx, root, &mn, &mx);
    });
    return h;
}

} // namespace mnemosyne::ds
