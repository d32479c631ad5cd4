#include "scm/scm.h"

#include <algorithm>
#include <cassert>
#include <random>

#include "obs/stats_registry.h"

namespace mnemosyne::scm {

namespace {

std::atomic<ScmContext *> gCurrent{nullptr};
thread_local ScmContext *tCurrent = nullptr;

ScmContext &
defaultCtx()
{
    static ScmContext c{ScmConfig{}};
    return c;
}

uintptr_t
lineBase(const void *addr)
{
    return reinterpret_cast<uintptr_t>(addr) & ~(uintptr_t(kCacheLineSize) - 1);
}

uint64_t
nextCtxId()
{
    static std::atomic<uint64_t> gen{0};
    return gen.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Live writes into the persistent range can race with the MTM's
// optimistic readers: each per-line run of Txn::read is a seqlock-style
// read that is validated against the stripe version and retried on
// instability.
// The protocol is correct, but a plain memcpy would make that race
// undefined behaviour (and a ThreadSanitizer report), so device-level
// copies go through word-sized relaxed atomics — free on x86-64 —
// whenever the destination is word-aligned.
void
deviceCopy(void *dst, const void *src, size_t len)
{
    if ((reinterpret_cast<uintptr_t>(dst) | len) & 7) {
        std::memcpy(dst, src, len);
        return;
    }
    auto *dw = reinterpret_cast<uint64_t *>(dst);
    const auto *sb = static_cast<const uint8_t *>(src);
    for (size_t i = 0; i < len / 8; ++i) {
        uint64_t v;
        std::memcpy(&v, sb + i * 8, 8);
        std::atomic_ref<uint64_t>(dw[i]).store(v, std::memory_order_relaxed);
    }
}

} // namespace

ScmContext &
ctx()
{
    if (tCurrent)
        return *tCurrent;
    ScmContext *c = gCurrent.load(std::memory_order_acquire);
    return c ? *c : defaultCtx();
}

void
setCtx(ScmContext *c)
{
    gCurrent.store(c, std::memory_order_release);
}

ScmContext *
threadCtx()
{
    return tCurrent;
}

void
setThreadCtx(ScmContext *c)
{
    tCurrent = c;
}

const char *
eventName(ScmContext::Event ev)
{
    switch (ev) {
      case ScmContext::Event::kStore: return "store";
      case ScmContext::Event::kWtStore: return "wtstore";
      case ScmContext::Event::kFlush: return "flush";
      case ScmContext::Event::kFlushOpt: return "flushopt";
      case ScmContext::Event::kFence: return "fence";
    }
    return "?";
}

ScmContext::ScmContext(ScmConfig cfg) : cfg_(cfg), id_(nextCtxId())
{
    // Emit this context's primitive counts under "scm.*" whenever it is
    // the context the free-function primitives resolve to.  Contexts
    // that are alive but not current emit nothing, so one snapshot
    // never mixes two emulators.
    statsSourceToken_ =
        obs::StatsRegistry::instance().addSource([this](obs::Sink &sink) {
            if (&ctx() != this)
                return;
            const ScmStats s = statsSnapshot();
            sink.emit("scm.stores", s.stores);
            sink.emit("scm.wtstores", s.wtstores);
            sink.emit("scm.flushes", s.flushes);
            sink.emit("scm.fences", s.fences);
            sink.emit("scm.bytes_streamed", s.bytes_streamed);
            sink.emit("scm.bytes_stored", s.bytes_stored);
            sink.emit("scm.delay_ns", s.delay_ns);
        });
}

ScmContext::~ScmContext()
{
    obs::StatsRegistry::instance().removeSource(statsSourceToken_);
    if (tCurrent == this)
        tCurrent = nullptr;
    if (gCurrent.load(std::memory_order_acquire) == this)
        setCtx(nullptr);
}

ScmContext::ThreadScm &
ScmContext::self()
{
    // Cache the lookup per (thread, context).  The cache is keyed by the
    // context's unique id, not its address: a new context may be
    // allocated where a destroyed one lived.
    thread_local uint64_t cached_id = 0;
    thread_local ThreadScm *cached_state = nullptr;
    if (cached_id == id_ && cached_state)
        return *cached_state;

    std::lock_guard<std::mutex> g(regMu_);
    auto &slot = threads_[std::this_thread::get_id()];
    if (!slot)
        slot = std::make_unique<ThreadScm>();
    cached_id = id_;
    cached_state = slot.get();
    return *slot;
}

void
ScmContext::hookEvent(Event ev, const void *addr, size_t len)
{
    // Fast lane: with no hook installed and no failure journal there is
    // no consumer of event numbers (crash-point sweeps need both), so
    // skip the shared counter bump — on a many-core performance run the
    // fetch_add line bounces between every thread issuing primitives.
    if (!hasHook_.load(std::memory_order_acquire)) {
        if (cfg_.failure_tracking)
            eventNo_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const uint64_t n = eventNo_.fetch_add(1, std::memory_order_relaxed) + 1;
    WriteHook h;
    {
        std::lock_guard<std::mutex> g(hookMu_);
        h = hook_;
    }
    if (h)
        h(n, ev, addr, len);
}

void
ScmContext::setWriteHook(WriteHook hook)
{
    std::lock_guard<std::mutex> g(hookMu_);
    hook_ = std::move(hook);
    hasHook_.store(hook_ != nullptr, std::memory_order_release);
}

void
ScmContext::setCrashMode(CrashPersistMode m, uint64_t seed)
{
    cfg_.crash_mode = m;
    cfg_.crash_seed = seed;
}

ScmContext::JournalEntry
ScmContext::makeEntry(void *addr, const void *src, size_t len,
                      WriteState st, bool streaming)
{
    JournalEntry e;
    e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    e.addr = reinterpret_cast<uintptr_t>(addr);
    e.len = uint32_t(len);
    e.state = st;
    e.streaming = streaming;
    if (len > JournalEntry::kInlineBytes)
        e.spill = std::make_unique<uint8_t[]>(2 * len);
    std::memcpy(e.oldBytes(), addr, len);
    std::memcpy(e.newBytes(), src, len);
    deviceCopy(addr, src, len);
    return e;
}

void
ScmContext::store(void *addr, const void *src, size_t len)
{
    if (halted_.load(std::memory_order_acquire))
        return;
    nStores_.add(1);
    bytesStored_.add(len);
    hookEvent(Event::kStore, addr, len);
    if (!cfg_.failure_tracking) {
        deviceCopy(addr, src, len);
        return;
    }
    // Into the shared cache pool: the write is coherent and visible,
    // and any thread's later flush of its line(s) can issue it.  The
    // write is split at cache-line boundaries — clflush acts on one
    // line, so each line's portion must be claimable and persistable
    // independently (a cross-line store tears at the boundary when
    // only one of its lines was flushed before the crash).
    std::lock_guard<std::mutex> g(cache_.mu);
    auto *dst = static_cast<uint8_t *>(addr);
    const auto *s = static_cast<const uint8_t *>(src);
    size_t off = 0;
    while (off < len) {
        const uintptr_t line = lineBase(dst + off);
        const size_t n = std::min<size_t>(
            len - off,
            line + kCacheLineSize - reinterpret_cast<uintptr_t>(dst + off));
        JournalEntry e =
            makeEntry(dst + off, s + off, n, WriteState::kCached, false);
        const uint64_t key = e.seq;
        cache_.byLine[line].push_back(key);
        cache_.entries.emplace(key, std::move(e));
        off += n;
    }
}

void
ScmContext::wtstore(void *addr, const void *src, size_t len)
{
    if (halted_.load(std::memory_order_acquire))
        return;
    nWtStores_.add(1);
    bytesStreamed_.add(len);
    hookEvent(Event::kWtStore, addr, len);
    if (!cfg_.failure_tracking &&
        cfg_.latency_mode == LatencyMode::kNone) {
        // Fast lane (pure software measurement): no journal entry, and
        // the bandwidth model is moot with no delay realization — skip
        // the per-thread state lookup and the steady_clock read.
        deviceCopy(addr, src, len);
        return;
    }
    ThreadScm &t = self();
    if (t.wtBytesSinceFence == 0)
        t.wtSeqStart = std::chrono::steady_clock::now();
    t.wtBytesSinceFence += len;
    if (!cfg_.failure_tracking) {
        deviceCopy(addr, src, len);
        return;
    }
    JournalEntry e = makeEntry(addr, src, len, WriteState::kIssued, true);
    std::lock_guard<std::mutex> g(t.mu);
    t.entries.push_back(std::move(e));
}

void
ScmContext::flushImpl(const void *addr, Event ev)
{
    if (halted_.load(std::memory_order_acquire))
        return;
    nFlushes_.add(1);
    hookEvent(ev, addr, kCacheLineSize);
    if (cfg_.failure_tracking) {
        // Claim the line's cached writes: they are now issued toward
        // SCM, and a fence by *any* thread that flushed the line
        // retires them.  The entries stay in the coherent pool — the
        // claim is shared, not a hand-off — so two threads flushing
        // the same line each gain the clflush→fence durability edge
        // (asynchronous truncation relies on the cross-thread case).
        const uintptr_t base = lineBase(addr);
        ThreadScm &t = self();
        std::scoped_lock g(t.mu, cache_.mu);
        auto it = cache_.byLine.find(base);
        if (it != cache_.byLine.end()) {
            auto &keys = it->second;
            size_t w = 0;
            for (uint64_t key : keys) {
                auto eit = cache_.entries.find(key);
                if (eit == cache_.entries.end())
                    continue; // retired by a claimant's fence; prune
                eit->second.state = WriteState::kIssued;
                t.claimedKeys.push_back(key);
                keys[w++] = key;
            }
            keys.resize(w);
            if (keys.empty())
                cache_.byLine.erase(it);
        }
    }
    // Cacheable writes pay the PCM write latency on the subsequent
    // flush (paper, section 6.1).  The kNone fast lane skips even the
    // accounting: charge()'s shared atomic is a contention point.
    if (cfg_.latency_mode != LatencyMode::kNone || cfg_.failure_tracking)
        account_.charge(cfg_.latency_mode, cfg_.write_latency_ns);
}

void
ScmContext::flush(const void *addr)
{
    flushImpl(addr, Event::kFlush);
}

void
ScmContext::flushopt(const void *addr)
{
    flushImpl(addr, Event::kFlushOpt);
}

void
ScmContext::flushRange(const void *addr, size_t len)
{
    if (len == 0)
        return;
    const uintptr_t first = lineBase(addr);
    const uintptr_t last =
        lineBase(reinterpret_cast<const uint8_t *>(addr) + len - 1);
    for (uintptr_t line = first; line <= last; line += kCacheLineSize)
        flush(reinterpret_cast<const void *>(line));
}

void
ScmContext::fence()
{
    if (halted_.load(std::memory_order_acquire))
        return;
    nFences_.add(1);
    hookEvent(Event::kFence, nullptr, 0);
    if (!cfg_.failure_tracking &&
        cfg_.latency_mode == LatencyMode::kNone) {
        // Fast lane: nothing to retire and nothing to delay — the
        // matching wtstore lane never accumulated bandwidth state, so
        // a fence is counters only.
        return;
    }
    ThreadScm &t = self();

    // Bandwidth model: the delay for a sequence of streaming writes is
    // inserted after the sequence completes, sized so the sequence's
    // total duration matches the modelled bandwidth (section 6.1 —
    // "accurate to within 4%").  The time already spent issuing the
    // writes counts toward the transfer in spin mode; the virtual mode
    // charges the full model time for deterministic accounting.
    uint64_t delay = cfg_.write_latency_ns;
    if (t.wtBytesSinceFence > 0 && cfg_.write_bandwidth_bytes_per_us > 0) {
        uint64_t bw_ns =
            t.wtBytesSinceFence * 1000 / cfg_.write_bandwidth_bytes_per_us;
        if (cfg_.latency_mode == LatencyMode::kSpin) {
            const uint64_t elapsed = uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t.wtSeqStart)
                    .count());
            bw_ns = bw_ns > elapsed ? bw_ns - elapsed : 0;
        }
        delay += bw_ns;
        t.wtBytesSinceFence = 0;
    }

    if (cfg_.failure_tracking) {
        // Retire this thread's issued writes: they are now durable.
        // Two sources: the thread's own streamed stores, and the pool
        // entries whose lines it flushed.  A claimed entry another
        // claimant's fence already retired is simply gone.  The
        // conformance canary (ScmConfig::conform_bug) severs exactly
        // the flush half of this edge.
        std::scoped_lock g(t.mu, cache_.mu);
        std::erase_if(t.entries, [](const JournalEntry &e) {
            return e.state == WriteState::kIssued;
        });
        if (!cfg_.conform_bug) {
            for (uint64_t key : t.claimedKeys) {
                auto eit = cache_.entries.find(key);
                if (eit == cache_.entries.end())
                    continue;
                const uintptr_t line = lineBase(
                    reinterpret_cast<const void *>(eit->second.addr));
                auto lit = cache_.byLine.find(line);
                if (lit != cache_.byLine.end()) {
                    std::erase(lit->second, key);
                    if (lit->second.empty())
                        cache_.byLine.erase(lit);
                }
                cache_.entries.erase(eit);
            }
            t.claimedKeys.clear();
        }
    }
    account_.charge(cfg_.latency_mode, delay);
}

uint64_t
ScmContext::crash(bool halt_after)
{
    assert(cfg_.failure_tracking && "crash() requires failure tracking");
    if (halt_after)
        halted_.store(true, std::memory_order_release);

    // Collect every outstanding write — per-thread streamed journals
    // plus the shared cache pool — in global write order.
    std::vector<JournalEntry> all;
    {
        std::lock_guard<std::mutex> reg(regMu_);
        for (auto &[tid, t] : threads_) {
            (void)tid;
            std::lock_guard<std::mutex> g(t->mu);
            for (auto &e : t->entries)
                all.push_back(std::move(e));
            t->entries.clear();
            t->claimedKeys.clear();
            t->wtBytesSinceFence = 0;
        }
        std::lock_guard<std::mutex> g(cache_.mu);
        for (auto &[key, e] : cache_.entries) {
            (void)key;
            all.push_back(std::move(e));
        }
        cache_.entries.clear();
        cache_.byLine.clear();
    }
    std::sort(all.begin(), all.end(),
              [](const JournalEntry &a, const JournalEntry &b) {
                  return a.seq < b.seq;
              });

    // Step 1: revert, newest first, to reach the durable base.  A byte
    // whose current value differs from the entry's post-image was
    // overwritten by a *retired* (already durable) later write — e.g.
    // store(x,1) still pending while wtstore(x,2)+fence retired —
    // and rewinding it would un-persist durable data.  Such bytes are
    // superseded: patch both images to the durable value so the revert
    // and any re-apply of the entry become no-ops for them (the
    // superseded write is observationally invisible either way).  One
    // blind spot, shared with the whole pre-image scheme: a retired
    // write that stored the byte's *identical* pending value cannot be
    // told apart from "no later write" and is still rewound.
    for (auto it = all.rbegin(); it != all.rend(); ++it) {
        auto *mem = reinterpret_cast<uint8_t *>(it->addr);
        uint8_t *oldb = it->oldBytes();
        uint8_t *newb = it->newBytes();
        for (uint32_t b = 0; b < it->len; ++b) {
            if (mem[b] == newb[b])
                mem[b] = oldb[b];
            else
                oldb[b] = newb[b] = mem[b];
        }
    }

    // Step 2: re-apply the writes that "made it" to SCM, oldest first.
    if (cfg_.crash_mode == CrashPersistMode::kRandomSubset)
        return applyRandomSubset(all);
    uint64_t lost = 0;
    for (auto &e : all) {
        bool keep_entry = false;
        switch (cfg_.crash_mode) {
          case CrashPersistMode::kDropUnfenced:
            keep_entry = false;
            break;
          case CrashPersistMode::kKeepIssued:
            keep_entry = (e.state == WriteState::kIssued);
            break;
          case CrashPersistMode::kKeepAll:
            keep_entry = true;
            break;
          case CrashPersistMode::kRandomSubset:
            break; // handled above
        }
        if (keep_entry) {
            std::memcpy(reinterpret_cast<void *>(e.addr), e.newBytes(),
                        e.len);
        } else {
            ++lost;
        }
    }
    return lost;
}

uint64_t
ScmContext::applyRandomSubset(std::vector<JournalEntry> &all)
{
    // The adversarial mode realizes the Px86 failure semantics
    // (arXiv 2010.13593) the conformance oracle checks against:
    //
    //  - Survival is decided per *device-aligned* 8-byte chunk — SCM
    //    persists are atomic at aligned 64-bit granularity (paper
    //    section 2), so an unaligned write can tear exactly at the
    //    boundaries of the device words it straddles.
    //  - Persists to one cache line are FIFO: a crash cuts each line's
    //    cacheable write sequence at a single point, and the surviving
    //    writes of the line are a prefix of its write order.
    //  - Streamed writes sit in write-combining buffers, which drain
    //    in arbitrary 8-byte chunks — independent survival per chunk,
    //    exempt from the per-line FIFO.
    //
    // RNG draws happen in a layout-stable order (lines ascending, then
    // streamed chunks in write order), so a (seed, workload) pair
    // reproduces the same image wherever the arena's internal layout
    // is the same — the property sweep repro specs depend on.
    struct Chunk {
        JournalEntry *e;
        uint32_t off, n;
    };
    std::map<uintptr_t, std::vector<Chunk>> lines;
    std::vector<Chunk> wc;
    for (auto &e : all) {
        uint32_t off = 0;
        while (off < e.len) {
            const uintptr_t a = e.addr + off;
            const uint32_t n =
                std::min<uint32_t>(e.len - off, uint32_t(8 - (a & 7)));
            if (e.streaming)
                wc.push_back({&e, off, n});
            else
                lines[lineBase(reinterpret_cast<const void *>(a))]
                    .push_back({&e, off, n});
            off += n;
        }
    }

    std::mt19937_64 rng(cfg_.crash_seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<Chunk> kept;
    for (auto &[line, seqd] : lines) {
        (void)line;
        const size_t cut = size_t(rng() % (seqd.size() + 1));
        kept.insert(kept.end(), seqd.begin(), seqd.begin() + cut);
    }
    for (const auto &c : wc)
        if (rng() & 1)
            kept.push_back(c);

    std::sort(kept.begin(), kept.end(), [](const Chunk &a, const Chunk &b) {
        return a.e->seq != b.e->seq ? a.e->seq < b.e->seq : a.off < b.off;
    });
    std::unordered_map<const JournalEntry *, uint32_t> keptBytes;
    for (const auto &c : kept) {
        std::memcpy(reinterpret_cast<void *>(c.e->addr + c.off),
                    c.e->newBytes() + c.off, c.n);
        keptBytes[c.e] += c.n;
    }
    uint64_t lost = 0;
    for (const auto &e : all)
        if (keptBytes[&e] < e.len)
            ++lost;
    return lost;
}

void
ScmContext::persistAll()
{
    std::lock_guard<std::mutex> reg(regMu_);
    for (auto &[tid, t] : threads_) {
        (void)tid;
        std::lock_guard<std::mutex> g(t->mu);
        t->entries.clear();
        t->claimedKeys.clear();
        t->wtBytesSinceFence = 0;
    }
    std::lock_guard<std::mutex> g(cache_.mu);
    cache_.entries.clear();
    cache_.byLine.clear();
}

ScmStats
ScmContext::statsSnapshot() const
{
    ScmStats s;
    s.stores = nStores_.sum();
    s.wtstores = nWtStores_.sum();
    s.flushes = nFlushes_.sum();
    s.fences = nFences_.sum();
    s.bytes_streamed = bytesStreamed_.sum();
    s.bytes_stored = bytesStored_.sum();
    s.delay_ns = account_.totalNs();
    return s;
}

void
ScmContext::resetStats()
{
    nStores_.reset();
    nWtStores_.reset();
    nFlushes_.reset();
    nFences_.reset();
    bytesStreamed_.reset();
    bytesStored_.reset();
    account_.reset();
}

} // namespace mnemosyne::scm
