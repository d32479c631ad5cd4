#include "crash/scenario.h"

#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>

#include "crash/crash_harness.h"
#include "ds/phash_table.h"
#include "log/rawl.h"

namespace mnemosyne::crash {

ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry r;
    return r;
}

void
ScenarioRegistry::add(const std::string &name, Factory factory)
{
    factories_[name] = std::move(factory);
}

std::unique_ptr<Scenario>
ScenarioRegistry::create(const std::string &name) const
{
    auto it = factories_.find(name);
    if (it == factories_.end())
        throw std::out_of_range("unknown crash scenario: " + name);
    return it->second();
}

bool
ScenarioRegistry::has(const std::string &name) const
{
    return factories_.count(name) != 0;
}

std::vector<std::string>
ScenarioRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &[name, factory] : factories_)
        out.push_back(name);
    return out;
}

namespace {

/** Deterministic word values (splitmix-style), shared by workloads and
 *  their verify sides. */
uint64_t
mixWord(uint64_t a, uint64_t b)
{
    uint64_t x = a * 0x9E3779B97F4A7C15ULL +
                 (b + 1) * 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 31;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 29;
    return x;
}

// ---------------------------------------------------------------------------
// rawl: torn-bit log appends.  Crash anywhere inside a sequence of
// append+flush bursts; the reopened log must hold an exact, uncorrupted
// prefix of the appended records.
// ---------------------------------------------------------------------------

class RawlScenario final : public Scenario
{
  public:
    static constexpr size_t kLogBytes = 4096;
    static constexpr int kRecords = 6;

    std::string name() const override { return "rawl"; }

    static size_t recordLen(int r) { return 1 + size_t(r % 7); }

    void
    prepare(ScenarioEnv &env) override
    {
        void *buf = env.rt.regions().pstaticVar("sweep_rawl", kLogBytes,
                                                nullptr);
        log_ = log::Rawl::create(env.scm, buf, kLogBytes);
    }

    void
    workload(ScenarioEnv &env) override
    {
        (void)env;
        for (int r = 0; r < kRecords; ++r) {
            uint64_t rec[8];
            const size_t n = recordLen(r);
            for (size_t j = 0; j < n; ++j)
                rec[j] = mixWord(uint64_t(r), j) & log::Rawl::kPayloadMask;
            log_->append(rec, n);
            log_->flush();
        }
    }

    std::string
    verify(ScenarioEnv &env) override
    {
        void *buf = env.rt.regions().pstaticVar("sweep_rawl", kLogBytes,
                                                nullptr);
        auto re = log::Rawl::open(env.scm, buf);
        if (!re)
            return "rawl: reopen failed (corrupt header)";
        auto cur = re->begin();
        std::vector<uint64_t> out;
        int i = 0;
        while (re->readRecord(cur, out)) {
            if (i >= kRecords) {
                return "rawl: phantom record " + std::to_string(i) +
                       " beyond everything appended";
            }
            const size_t n = recordLen(i);
            if (out.size() != n) {
                return "rawl: record " + std::to_string(i) + " has " +
                       std::to_string(out.size()) + " words, want " +
                       std::to_string(n);
            }
            for (size_t j = 0; j < n; ++j) {
                const uint64_t want =
                    mixWord(uint64_t(i), j) & log::Rawl::kPayloadMask;
                if (out[j] != want) {
                    std::ostringstream os;
                    os << "rawl: record " << i << " word " << j
                       << ": have 0x" << std::hex << out[j] << " want 0x"
                       << want;
                    return os.str();
                }
            }
            ++i;
        }
        return "";
    }

  private:
    std::unique_ptr<log::Rawl> log_;
};

// ---------------------------------------------------------------------------
// mtm: the section 6.2 crash stress engine — seeded multi-word durable
// transactions; recovered memory must match the committed prefix.
// ---------------------------------------------------------------------------

class MtmScenario final : public Scenario
{
  public:
    static constexpr uint64_t kSeed = 42;
    static constexpr uint64_t kOps = 3;

    std::string name() const override { return "mtm"; }

    void
    prepare(ScenarioEnv &env) override
    {
        eng_ = std::make_unique<StressEngine>(env.rt, kSeed);
    }

    void
    workload(ScenarioEnv &env) override
    {
        (void)env;
        eng_->runOps(kOps, &committed_);
    }

    std::string
    verify(ScenarioEnv &env) override
    {
        const auto res =
            StressEngine::verify(env.rt, kSeed, committed_);
        return res.verified ? "" : res.mismatch;
    }

  private:
    std::unique_ptr<StressEngine> eng_;
    uint64_t committed_ = 0;
};

// ---------------------------------------------------------------------------
// heap: pmalloc/pfree bursts over persistent pointer slots.  After
// reincarnation, the set of reachable blocks must exactly match the
// heap's live-block accounting: nothing leaked (allocated but in no
// slot), nothing doubly owned, no two blocks overlapping.
// ---------------------------------------------------------------------------

class HeapScenario final : public Scenario
{
  public:
    static constexpr size_t kSlots = 6;

    std::string name() const override { return "heap"; }

    static const size_t *
    sizes()
    {
        // Mix of superblock-heap (<= 4 KB) and big-allocator sizes.
        static const size_t s[kSlots] = {24, 600, 3000, 8192, 64, 12288};
        return s;
    }

    void
    prepare(ScenarioEnv &env) override
    {
        slots_ = static_cast<void **>(env.rt.regions().pstaticVar(
            "sweep_heap_slots", kSlots * sizeof(void *), nullptr));
    }

    void
    workload(ScenarioEnv &env) override
    {
        // detachThreadCache() between segments parks this thread's
        // superblock cache and hands its partial superblocks back to the
        // global pool, so successive segments run under different caches
        // (and different per-cache redo logs).  That makes every crash
        // point also cover superblock transfers, orphan adoption, and
        // multi-log replay — the per-thread bitmaps must stay leak-free
        // no matter which cache last owned them.
        for (size_t i = 0; i < kSlots; ++i) {
            env.rt.pmalloc(sizes()[i], &slots_[i]);
            if (i == kSlots / 2)
                env.rt.heap().detachThreadCache();
        }
        env.rt.heap().detachThreadCache();
        env.rt.pfree(&slots_[1]);
        env.rt.pfree(&slots_[3]);
        env.rt.heap().detachThreadCache();
        // Allocate into a just-freed slot: covers alloc-after-free
        // paths (superblock reuse, coalesced big chunks).
        env.rt.pmalloc(512, &slots_[1]);
    }

    std::string
    verify(ScenarioEnv &env) override
    {
        auto **slots = static_cast<void **>(env.rt.regions().pstaticVar(
            "sweep_heap_slots", kSlots * sizeof(void *), nullptr));
        auto &heap = env.rt.heap();

        size_t reachable = 0;
        for (size_t i = 0; i < kSlots; ++i) {
            void *p = slots[i];
            if (!p)
                continue;
            ++reachable;
            if (!heap.owns(p)) {
                std::ostringstream os;
                os << "heap: slot " << i << " -> " << p
                   << " not owned by the heap (dangling)";
                return os.str();
            }
            if (heap.usableSize(p) == 0) {
                std::ostringstream os;
                os << "heap: slot " << i << " -> " << p
                   << " has zero usable size (freed block reachable)";
                return os.str();
            }
        }
        // Doubly-owned / overlap: every reachable block's byte range
        // must be disjoint from every other's.
        for (size_t i = 0; i < kSlots; ++i) {
            for (size_t j = i + 1; j < kSlots; ++j) {
                if (!slots[i] || !slots[j])
                    continue;
                const auto a = reinterpret_cast<uintptr_t>(slots[i]);
                const auto b = reinterpret_cast<uintptr_t>(slots[j]);
                const uintptr_t a_end = a + heap.usableSize(slots[i]);
                const uintptr_t b_end = b + heap.usableSize(slots[j]);
                if (a < b_end && b < a_end) {
                    std::ostringstream os;
                    os << "heap: slots " << i << " and " << j
                       << " overlap (" << slots[i] << " and " << slots[j]
                       << ") — block doubly owned";
                    return os.str();
                }
            }
        }
        // Leak check: the heap's own accounting of live blocks must
        // equal the number of reachable slots — an allocated block no
        // slot points to is leaked; a slot pointing at accounted-free
        // memory was caught above.
        const auto st = heap.stats();
        const size_t live = st.small.blocks_allocated + st.big.chunks_in_use;
        if (live != reachable) {
            std::ostringstream os;
            os << "heap: " << live << " live blocks but " << reachable
               << " reachable slots ("
               << (live > reachable ? "leak" : "double free") << ")";
            return os.str();
        }
        return "";
    }

  private:
    void **slots_ = nullptr;
};

// ---------------------------------------------------------------------------
// region: pmap/punmap with persistent publication slots.  The region
// table and the client's pointer cells must agree one-to-one after
// recovery: every default-flag region has exactly one cell naming it
// (no orphaned region), every non-null cell names a valid region (no
// dangling pointer).
// ---------------------------------------------------------------------------

class RegionScenario final : public Scenario
{
  public:
    static constexpr size_t kCells = 3;
    static constexpr size_t kLen0 = 64 * 1024;
    static constexpr size_t kLen1 = 128 * 1024;
    static constexpr size_t kLen2 = 64 * 1024;

    std::string name() const override { return "region"; }

    void
    prepare(ScenarioEnv &env) override
    {
        cells_ = static_cast<void **>(env.rt.regions().pstaticVar(
            "sweep_region_cells", kCells * sizeof(void *), nullptr));
    }

    void
    workload(ScenarioEnv &env) override
    {
        env.rt.pmap(&cells_[0], kLen0);
        env.rt.pmap(&cells_[1], kLen1);
        env.rt.punmap(cells_[0], kLen0);
        env.rt.pmap(&cells_[2], kLen2);
    }

    std::string
    verify(ScenarioEnv &env) override
    {
        auto **cells = static_cast<void **>(env.rt.regions().pstaticVar(
            "sweep_region_cells", kCells * sizeof(void *), nullptr));
        std::set<void *> regions;
        for (const auto &r : env.rt.regions().regions()) {
            if (r.flags == region::kRegionDefault)
                regions.insert(r.addr);
        }
        std::set<void *> named;
        for (size_t i = 0; i < kCells; ++i) {
            void *p = cells[i];
            if (!p)
                continue;
            if (!regions.count(p)) {
                std::ostringstream os;
                os << "region: cell " << i << " -> " << p
                   << " names no valid region (dangling)";
                return os.str();
            }
            if (!named.insert(p).second) {
                std::ostringstream os;
                os << "region: cell " << i << " -> " << p
                   << " names an already-claimed region";
                return os.str();
            }
        }
        if (named.size() != regions.size()) {
            std::ostringstream os;
            os << "region: " << regions.size() << " valid regions but "
               << named.size() << " cells name one (orphaned region)";
            return os.str();
        }
        return "";
    }

  private:
    void **cells_ = nullptr;
};

// ---------------------------------------------------------------------------
// hash: PHashTable puts/deletes (the section 6.3 microbenchmark
// structure).  The recovered table must reflect a prefix of the
// committed operations (the one in-flight op may or may not have
// landed).
// ---------------------------------------------------------------------------

class HashScenario final : public Scenario
{
  public:
    static constexpr uint64_t kOps = 6;
    static constexpr size_t kKeys = 4;
    static constexpr size_t kBuckets = 64;

    std::string name() const override { return "hash"; }

    static std::string keyOf(uint64_t op) { return "k" + std::to_string(op % kKeys); }
    static std::string valOf(uint64_t op) { return "v" + std::to_string(op); }
    static bool isPut(uint64_t op) { return op % 3 != 2; }

    void
    prepare(ScenarioEnv &env) override
    {
        table_ = std::make_unique<ds::PHashTable>(env.rt, "sweep_hash",
                                                  kBuckets);
        // Pre-populate one key so the very first swept events can hit
        // the delete path too.
        table_->put(keyOf(2), "seed");
    }

    void
    workload(ScenarioEnv &env) override
    {
        (void)env;
        for (uint64_t op = 0; op < kOps; ++op) {
            if (isPut(op))
                table_->put(keyOf(op), valOf(op));
            else
                table_->del(keyOf(op));
            ++committed_;
        }
    }

    std::string
    verify(ScenarioEnv &env) override
    {
        ds::PHashTable table(env.rt, "sweep_hash", kBuckets);

        auto imageAfter = [](uint64_t nops) {
            std::map<std::string, std::string> m;
            m[keyOf(2)] = "seed";
            for (uint64_t op = 0; op < nops && op < kOps; ++op) {
                if (isPut(op))
                    m[keyOf(op)] = valOf(op);
                else
                    m.erase(keyOf(op));
            }
            return m;
        };

        auto matches = [&](const std::map<std::string, std::string> &want,
                           std::string *why) {
            for (size_t k = 0; k < kKeys; ++k) {
                const std::string key = "k" + std::to_string(k);
                std::string val;
                const bool present = table.get(key, &val);
                auto it = want.find(key);
                if (it == want.end()) {
                    if (present) {
                        *why = "hash: key " + key +
                               " present (\"" + val + "\") but deleted";
                        return false;
                    }
                } else if (!present) {
                    *why = "hash: key " + key + " missing, want \"" +
                           it->second + "\"";
                    return false;
                } else if (val != it->second) {
                    *why = "hash: key " + key + " = \"" + val +
                           "\", want \"" + it->second + "\"";
                    return false;
                }
            }
            if (table.size() != want.size()) {
                *why = "hash: size " + std::to_string(table.size()) +
                       ", want " + std::to_string(want.size());
                return false;
            }
            return true;
        };

        std::string why_exact, why_next;
        if (matches(imageAfter(committed_), &why_exact))
            return "";
        if (matches(imageAfter(committed_ + 1), &why_next))
            return "";
        return why_exact + " (after " + std::to_string(committed_) +
               " committed ops; next-op image also mismatches: " +
               why_next + ")";
    }

  private:
    std::unique_ptr<ds::PHashTable> table_;
    uint64_t committed_ = 0;
};

// ---------------------------------------------------------------------------
// group_commit: relaxed-durability commit_async under the fence-epoch
// combiner.  Two sync() barriers seal two epochs of three async
// transactions each; every epoch rewrites the whole word array.  Crash
// anywhere inside the window — including between the member-record
// flushes and the single epoch fence — and recovery must land on
// exactly one of { baseline, epoch 1, epoch 2 }: whole-epoch
// all-or-nothing, never a torn batch with only some member
// transactions applied.  Each member's words sit on a cache line of
// their own, so members share no stripe lock: none aborts on a
// predecessor's lock (held until retirement), whose backoff would seal
// an extra epoch mid-batch.
// ---------------------------------------------------------------------------

/** Words per cache line: the stride that gives each transaction of a
 *  scenario lines (and so stripe locks) of its own. */
constexpr size_t kLineWords = scm::kCacheLineSize / sizeof(uint64_t);

/** The persistent static variable @p name with room for @p bytes from
 *  its first line boundary (pstatic data need not be line-aligned). */
uint64_t *
linePstatic(ScenarioEnv &env, const char *name, size_t bytes)
{
    const auto p = reinterpret_cast<uintptr_t>(env.rt.regions().pstaticVar(
        name, bytes + scm::kCacheLineSize, nullptr));
    return reinterpret_cast<uint64_t *>(
        (p + scm::kCacheLineSize - 1) & ~uintptr_t(scm::kCacheLineSize - 1));
}

class GroupCommitScenario final : public Scenario
{
  public:
    static constexpr size_t kTxns = 3;        // member txns per epoch
    static constexpr size_t kWordsPerTxn = 4;
    static constexpr size_t kWords = kTxns * kWordsPerTxn;
    static constexpr size_t kBytes = kTxns * scm::kCacheLineSize;

    /** Array slot of logical word @p w: member t's words on line t. */
    static size_t
    slot(size_t w)
    {
        return w / kWordsPerTxn * kLineWords + w % kWordsPerTxn;
    }

    std::string name() const override { return "group_commit"; }

    void
    configure(RuntimeConfig &cfg) override
    {
        cfg.txn.group_commit = true;
        // Larger than any batch below: epochs seal only at the
        // workload thread's sync(), never early at a join, keeping the
        // persistence-event sequence deterministic.
        cfg.txn.epoch_max_batch = 64;
    }

    void
    prepare(ScenarioEnv &env) override
    {
        words_ = linePstatic(env, "sweep_epoch_words", kBytes);
        // Keep the background truncator quiescent: with it paused all
        // combining happens inline on this thread, satisfying the
        // single-threaded determinism contract.
        env.rt.txns().pauseTruncation();
        env.rt.atomic([&](mtm::Txn &tx) {
            for (size_t w = 0; w < kWords; ++w)
                tx.writeT<uint64_t>(&words_[slot(w)], mixWord(0, w));
        });
    }

    void
    workload(ScenarioEnv &env) override
    {
        for (uint64_t epoch = 1; epoch <= 2; ++epoch) {
            for (size_t t = 0; t < kTxns; ++t) {
                env.rt.atomicAsync([&](mtm::Txn &tx) {
                    for (size_t i = 0; i < kWordsPerTxn; ++i) {
                        const size_t w = t * kWordsPerTxn + i;
                        tx.writeT<uint64_t>(&words_[slot(w)],
                                            mixWord(epoch, w));
                    }
                });
            }
            env.rt.sync();
        }
    }

    std::string
    verify(ScenarioEnv &env) override
    {
        const uint64_t *words = linePstatic(env, "sweep_epoch_words", kBytes);
        // Each epoch (and the baseline) writes ALL words, so the only
        // legal images are complete ones.  Seeing some-but-not-all
        // words from an epoch means its batch tore.
        for (uint64_t epoch = 2;; --epoch) {
            size_t hits = 0;
            for (size_t w = 0; w < kWords; ++w)
                if (words[slot(w)] == mixWord(epoch, w))
                    ++hits;
            if (hits == kWords)
                return "";
            if (hits != 0) {
                std::ostringstream os;
                os << "group_commit: torn epoch " << epoch << ": only "
                   << hits << "/" << kWords << " words updated";
                return os.str();
            }
            if (epoch == 0)
                return "group_commit: no consistent image "
                       "(baseline missing)";
        }
    }

  private:
    uint64_t *words_ = nullptr;
};

// ---------------------------------------------------------------------------
// compact_redo / compact_redo_gc: commit-record format coverage.
// Every transaction writes one clustered 3-word run (a write() span)
// plus two scattered words on other cache lines — the shape the
// compact (v2) record encodes as a multi-run varint stream
// (redo_codec.h).  Transaction footprints are disjoint down to the
// cache line (each run and each scattered word on a line of its own),
// so recovery must land on an exact transaction prefix: any torn
// record, a mis-decoded run, or a wrong base address shows up as a
// torn or out-of-prefix transaction; and the group-commit variant's
// members never abort on each other's stripe locks.  The second variant
// runs the records through the group-commit epoch path
// (kTagCommitEpochV2 gated on the epoch marker).  The retired v1
// writer's record shapes are decode-only; tests/mtm_test.cc keeps them
// under test with a hand-built v1 log fixture.
// ---------------------------------------------------------------------------

class RedoShapeScenario : public Scenario
{
  public:
    static constexpr size_t kTxns = 4;
    static constexpr size_t kClustered = 3;   // contiguous words per txn
    static constexpr size_t kScattered = 2;   // far words per txn
    static constexpr size_t kScatterBase = kTxns * kClustered;
    static constexpr size_t kWords = kTxns * (kClustered + kScattered);
    static constexpr size_t kTxnsPerEpoch = 2; // group-commit variant
    static constexpr size_t kBytes =
        kTxns * (1 + kScattered) * scm::kCacheLineSize;

    /** Array slot of logical word @p w: txn t's run on line t, then
     *  one line per scattered word. */
    static size_t
    slot(size_t w)
    {
        if (w < kScatterBase)
            return w / kClustered * kLineWords + w % kClustered;
        return (kTxns + w - kScatterBase) * kLineWords;
    }

    explicit RedoShapeScenario(bool gc) : gc_(gc) {}

    std::string
    name() const override
    {
        return gc_ ? "compact_redo_gc" : "compact_redo";
    }

    void
    configure(RuntimeConfig &cfg) override
    {
        if (gc_) {
            cfg.txn.group_commit = true;
            // Larger than any batch below: epochs seal only at sync(),
            // keeping the persistence-event sequence deterministic.
            cfg.txn.epoch_max_batch = 64;
        }
    }

    void
    prepare(ScenarioEnv &env) override
    {
        words_ = linePstatic(env, "sweep_redo_words", kBytes);
        if (gc_)
            env.rt.txns().pauseTruncation(); // combine inline: determinism
        env.rt.atomic([&](mtm::Txn &tx) {
            for (size_t w = 0; w < kWords; ++w)
                tx.writeT<uint64_t>(&words_[slot(w)], mixWord(0, w));
        });
    }

    void
    workload(ScenarioEnv &env) override
    {
        for (size_t t = 0; t < kTxns; ++t) {
            auto body = [&](mtm::Txn &tx) {
                // One contiguous run via a span write...
                uint64_t buf[kClustered];
                for (size_t i = 0; i < kClustered; ++i)
                    buf[i] = mixWord(t + 1, t * kClustered + i);
                tx.write(&words_[slot(t * kClustered)], buf, sizeof(buf));
                // ...plus scattered single words on other lines.
                for (size_t s = 0; s < kScattered; ++s) {
                    const size_t w = kScatterBase + s * kTxns + t;
                    tx.writeT<uint64_t>(&words_[slot(w)],
                                        mixWord(t + 1, w));
                }
            };
            if (gc_) {
                env.rt.atomicAsync(body);
                if ((t + 1) % kTxnsPerEpoch == 0)
                    env.rt.sync(); // seal the epoch
            } else {
                env.rt.atomic(body);
                ++committed_;
            }
        }
    }

    std::string
    verify(ScenarioEnv &env) override
    {
        const uint64_t *words = linePstatic(env, "sweep_redo_words", kBytes);
        // Per-transaction all-or-nothing over disjoint footprints.
        size_t applied_prefix = 0;
        bool prefix_open = true;
        for (size_t t = 0; t < kTxns; ++t) {
            size_t hits = 0;
            const size_t total = kClustered + kScattered;
            for (size_t i = 0; i < kClustered; ++i) {
                const size_t w = t * kClustered + i;
                if (words[slot(w)] == mixWord(t + 1, w))
                    ++hits;
            }
            for (size_t s = 0; s < kScattered; ++s) {
                const size_t w = kScatterBase + s * kTxns + t;
                if (words[slot(w)] == mixWord(t + 1, w))
                    ++hits;
            }
            if (hits != 0 && hits != total) {
                std::ostringstream os;
                os << name() << ": torn txn " << t << ": " << hits << "/"
                   << total << " words updated";
                return os.str();
            }
            if (hits == total) {
                if (!prefix_open) {
                    std::ostringstream os;
                    os << name() << ": txn " << t
                       << " applied after an unapplied predecessor";
                    return os.str();
                }
                ++applied_prefix;
            } else {
                prefix_open = false;
            }
        }
        if (gc_) {
            // Whole-epoch all-or-nothing: only epoch-multiple prefixes
            // are legal images (a sync() that crashed mid-round may or
            // may not have fenced its epoch, so any such prefix is).
            if (applied_prefix % kTxnsPerEpoch != 0) {
                std::ostringstream os;
                os << name() << ": torn epoch: " << applied_prefix
                   << " txns applied (not a multiple of "
                   << kTxnsPerEpoch << ")";
                return os.str();
            }
            return "";
        }
        // Synchronous commits: atomic() returning means durable, and at
        // most the one in-flight transaction may additionally survive.
        if (applied_prefix != committed_ &&
            applied_prefix != committed_ + 1) {
            std::ostringstream os;
            os << name() << ": " << applied_prefix
               << " txns applied, expected " << committed_ << " or "
               << committed_ + 1;
            return os.str();
        }
        return "";
    }

  private:
    const bool gc_;
    uint64_t *words_ = nullptr;
    uint64_t committed_ = 0;
};

// ---------------------------------------------------------------------------
// bug_onefence: the deliberately broken protocol the sweeper must
// catch.  Each group writes four payload words and a commit word with a
// SINGLE trailing fence — omitting the ordering fence between payload
// and commit that the tornbit scheme exists to avoid needing.  Under
// kRandomSubset, the commit word can reach SCM while payload words are
// lost; verify() sees commit set with wrong payload.
// ---------------------------------------------------------------------------

class OneFenceBugScenario final : public Scenario
{
  public:
    static constexpr size_t kGroups = 6;
    static constexpr size_t kWordsPerGroup = 5; // 4 payload + 1 commit

    std::string name() const override { return "bug_onefence"; }

    void
    prepare(ScenarioEnv &env) override
    {
        words_ = static_cast<uint64_t *>(env.rt.regions().pstaticVar(
            "sweep_bug", kGroups * kWordsPerGroup * sizeof(uint64_t),
            nullptr));
    }

    void
    workload(ScenarioEnv &env) override
    {
        auto &c = env.scm;
        for (size_t g = 0; g < kGroups; ++g) {
            uint64_t *grp = words_ + g * kWordsPerGroup;
            for (size_t i = 0; i < 4; ++i)
                c.wtstoreT(&grp[i], mixWord(g, i));
            // BUG: no fence here — the commit word races its payload.
            c.wtstoreT(&grp[4], uint64_t(1));
            c.fence();
        }
    }

    std::string
    verify(ScenarioEnv &env) override
    {
        auto *words = static_cast<uint64_t *>(env.rt.regions().pstaticVar(
            "sweep_bug", kGroups * kWordsPerGroup * sizeof(uint64_t),
            nullptr));
        for (size_t g = 0; g < kGroups; ++g) {
            const uint64_t *grp = words + g * kWordsPerGroup;
            if (grp[4] == 0)
                continue; // uncommitted group: payload unconstrained
            for (size_t i = 0; i < 4; ++i) {
                if (grp[i] != mixWord(g, i)) {
                    std::ostringstream os;
                    os << "bug_onefence: group " << g
                       << " committed but word " << i << " is 0x"
                       << std::hex << grp[i] << ", want 0x"
                       << mixWord(g, i);
                    return os.str();
                }
            }
        }
        return "";
    }

  private:
    uint64_t *words_ = nullptr;
};

} // namespace

void
registerBuiltinScenarios()
{
    auto &r = ScenarioRegistry::instance();
    r.add("rawl", [] { return std::make_unique<RawlScenario>(); });
    r.add("mtm", [] { return std::make_unique<MtmScenario>(); });
    r.add("heap", [] { return std::make_unique<HeapScenario>(); });
    r.add("region", [] { return std::make_unique<RegionScenario>(); });
    r.add("hash", [] { return std::make_unique<HashScenario>(); });
    r.add("group_commit",
          [] { return std::make_unique<GroupCommitScenario>(); });
    r.add("compact_redo", [] {
        return std::make_unique<RedoShapeScenario>(/*gc=*/false);
    });
    r.add("compact_redo_gc", [] {
        return std::make_unique<RedoShapeScenario>(/*gc=*/true);
    });
}

void
registerSyntheticBugScenario()
{
    ScenarioRegistry::instance().add(
        "bug_onefence", [] { return std::make_unique<OneFenceBugScenario>(); });
}

} // namespace mnemosyne::crash
