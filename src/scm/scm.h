/**
 * @file
 * Storage-class memory (SCM) emulator and hardware persistence primitives.
 *
 * Mnemosyne (ASPLOS 2011) relies on four hardware primitives available on
 * commodity x86 processors (section 4.1):
 *
 *  - store(addr, val):   regular cacheable store (mov); the value is
 *                        visible immediately but NOT durable.
 *  - wtstore(addr, val): write-through streaming store (movntq) into the
 *                        write-combining buffers; durable after a fence.
 *  - flush(addr):        clflush; pushes a cache line toward SCM, durable
 *                        after a fence.
 *  - fence():            mfence; blocks until write-combining buffers and
 *                        issued flushes have reached SCM.
 *
 * Because real SCM is unavailable, this module reproduces the paper's own
 * methodology (section 6.1): a DRAM-based performance emulator that
 * inserts TSC-calibrated delays for the *additional* latency of PCM
 * writes, models sequential write-through bandwidth, and — beyond the
 * paper's emulator — models the *failure* semantics of the cache
 * hierarchy so that crashes can be injected and recovery tested:
 *
 *  - Memory always holds the architecturally visible state (loads are
 *    plain reads).
 *  - A per-thread undo journal records every persistent-memory write
 *    that is not yet guaranteed durable, together with its pre-image.
 *  - fence() retires the calling thread's issued entries: its streamed
 *    writes, and every cache line the thread has flushed (the claim a
 *    flush takes on a line is shared — any thread that flushed the
 *    line can make it durable with its own fence, matching the formal
 *    clflush→fence ordering of Px86).  Entries that are only in the
 *    simulated cache (plain store(), never flushed) stay volatile.
 *  - crash() computes the post-failure SCM image: it reverts all
 *    journaled writes to obtain the durable base state and then, under
 *    CrashPersistMode::kRandomSubset, re-applies a seeded random
 *    selection of the un-retired writes at 8-byte granularity.
 *
 * The failure model follows the formal x86 persistency semantics of
 * *Taming x86-TSO Persistency* (arXiv 2010.13593), Px86: persists to
 * one cache line are FIFO (a crash cuts each line's write sequence at
 * a single point), streamed (write-combining) writes drain in
 * arbitrary aligned-8-byte chunks, and cross-line persist order is
 * unconstrained without flush+fence.  src/conform/ checks the emulator
 * against an executable oracle of that model litmus test by litmus
 * test; DESIGN.md §5.2 documents the rule-by-rule mapping and the
 * known simplifications.
 */

#ifndef MNEMOSYNE_SCM_SCM_H_
#define MNEMOSYNE_SCM_SCM_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "scm/latency.h"

namespace mnemosyne::scm {

/** Size of a cache line / write-combining buffer on the modelled platform. */
inline constexpr size_t kCacheLineSize = 64;

/** What happens to not-yet-durable writes when the machine loses power. */
enum class CrashPersistMode {
    kDropUnfenced,  ///< Strict: every write not retired by a fence is lost.
    kKeepIssued,    ///< Flushed/streamed writes survive; cached-only are lost.
    kKeepAll,       ///< Everything survives (models a flush-on-fail platform).
    kRandomSubset,  ///< Adversarial: seeded random subset survives, any order.
};

/** Configuration of the SCM emulator. */
struct ScmConfig {
    /** Delay realization (none / spin like the paper / virtual counter). */
    LatencyMode latency_mode = LatencyMode::kNone;

    /**
     * Additional write latency of PCM over DRAM, charged per cache-line
     * flush and per fence.  The paper's default experiments use 150 ns.
     */
    uint64_t write_latency_ns = 150;

    /**
     * Sequential write-through bandwidth in bytes per microsecond.
     * The paper limits experiments to 4 GB/s (Numonyx projection),
     * i.e. ~4096 bytes/us.
     */
    uint64_t write_bandwidth_bytes_per_us = 4096;

    /** Failure model applied by crash(). */
    CrashPersistMode crash_mode = CrashPersistMode::kDropUnfenced;

    /** Seed for kRandomSubset crash persistence decisions. */
    uint64_t crash_seed = 0;

    /**
     * Track the undo journal needed by crash().  Long-running pure
     * performance benchmarks can disable tracking; crash() is then
     * unavailable but all latency accounting still applies.
     */
    bool failure_tracking = true;

    /**
     * Conformance canary (MN_CONFORM_BUG): fence() skips retiring the
     * lines the calling thread flushed, severing the clflush→fence
     * durability edge while streamed writes still retire.  Exists so
     * the Px86 conformance harness (src/conform) can prove it catches
     * a broken emulator with a deterministic repro; never set in real
     * runs.
     */
    bool conform_bug = false;
};

/** Counters describing emulator activity since the last reset. */
struct ScmStats {
    uint64_t stores = 0;        ///< store() calls.
    uint64_t wtstores = 0;      ///< wtstore() calls.
    uint64_t flushes = 0;       ///< flush() calls.
    uint64_t fences = 0;        ///< fence() calls.
    uint64_t bytes_streamed = 0;///< Bytes written through wtstore().
    uint64_t bytes_stored = 0;  ///< Bytes written through store().
    uint64_t delay_ns = 0;      ///< Total emulated PCM delay charged.
};

/** Thrown by a crash-point hook to simulate sudden failure at that point. */
struct CrashNow {
    uint64_t event_no = 0;
};

/**
 * The SCM emulator: persistence primitives, latency model, failure model.
 *
 * Thread-safe.  Every layer is built on one context and keeps a
 * reference to it: a Runtime owns (or borrows) its context and hands it
 * down, so each thread's stores reach that runtime's emulator.  Tests
 * and crash-sweep trials construct private contexts.
 */
class ScmContext
{
  public:
    /** Kinds of persistence events, as seen by the write hook. */
    enum class Event { kStore, kWtStore, kFlush, kFlushOpt, kFence };

    /**
     * Crash-point hook: invoked with a global monotonically increasing
     * event number before each persistence event takes effect.  May throw
     * CrashNow to simulate failure at exactly that point.
     */
    using WriteHook =
        std::function<void(uint64_t event_no, Event ev, const void *addr,
                           size_t len)>;

    explicit ScmContext(ScmConfig cfg = {});
    ~ScmContext();

    ScmContext(const ScmContext &) = delete;
    ScmContext &operator=(const ScmContext &) = delete;

    /** Regular cacheable store: visible immediately, durable only after
     *  flush() of its line followed by fence(). */
    void store(void *addr, const void *src, size_t len);

    /** Streaming write-through store: durable after the next fence(). */
    void wtstore(void *addr, const void *src, size_t len);

    /** Write back the cache line containing @p addr (clflush). */
    void flush(const void *addr);

    /**
     * Optimized write-back of the line containing @p addr (clflushopt).
     * In this model it is durability-equivalent to flush() — the line
     * is written back and a subsequent fence by the flushing thread
     * makes it durable.  The real instruction is weaker only in its
     * ordering against *other* flushes, which does not change the set
     * of reachable post-crash states at fence granularity (DESIGN.md
     * §5.2); the separate event kind exists so protocols can state
     * intent and the conformance harness can exercise both paths.
     */
    void flushopt(const void *addr);

    /** Flush every cache line overlapping [addr, addr+len). */
    void flushRange(const void *addr, size_t len);

    /** Drain write-combining buffers and issued flushes (mfence). */
    void fence();

    /** Cache-coherent read (plain load; SCM reads are not delayed,
     *  matching the paper's emulator). */
    void
    load(void *dst, const void *addr, size_t len) const
    {
        std::memcpy(dst, addr, len);
    }

    /** Typed helpers. @{ */
    template <typename T>
    void storeT(T *addr, T val) { store(addr, &val, sizeof(T)); }
    template <typename T>
    void wtstoreT(T *addr, T val) { wtstore(addr, &val, sizeof(T)); }
    template <typename T>
    T
    loadT(const T *addr) const
    {
        T v;
        load(&v, addr, sizeof(T));
        return v;
    }
    /** @} */

    /**
     * Simulate sudden power failure: compute the post-crash SCM image
     * according to the configured CrashPersistMode, then discard all
     * volatile emulator state.  Returns the number of journaled writes
     * that were lost.
     *
     * With @p halt_after, the context is halted: every subsequent write
     * primitive becomes a no-op, so threads still unwinding (e.g. an
     * async truncation worker being torn down) cannot alter the
     * post-crash image.  Recovery then runs under a fresh context.
     */
    uint64_t crash(bool halt_after = false);

    /**
     * Halt without computing the crash image yet: the machine is "dead"
     * from this instant — all later writes are no-ops — but the failure
     * journal is kept so a subsequent crash() resolves what survived.
     * Crash-point hooks call this before throwing CrashNow so that
     * unwinding code cannot contaminate the post-crash image.
     */
    void haltNow() { halted_.store(true, std::memory_order_release); }

    bool halted() const { return halted_.load(std::memory_order_acquire); }

    /** Clean shutdown: everything reaches SCM; journal cleared. */
    void persistAll();

    /** Install (or clear, with nullptr) the crash-point hook. */
    void setWriteHook(WriteHook hook);

    /** Number of persistence events so far (for crash-point sweeps). */
    uint64_t eventCount() const { return eventNo_.load(std::memory_order_relaxed); }

    ScmStats statsSnapshot() const;

    const ScmConfig &config() const { return cfg_; }

    void setCrashMode(CrashPersistMode m, uint64_t seed = 0);

    /** Total emulated SCM delay charged so far, in nanoseconds. */
    uint64_t emulatedDelayNs() const { return account_.totalNs(); }

  private:
    /** Durability state of a journaled write. */
    enum class WriteState : uint8_t {
        kCached,    ///< In the simulated cache; lost unless flushed+fenced.
        kIssued,    ///< Flushed or streamed; durable at the next fence.
    };

    /** One journaled persistent-memory write with pre- and post-images. */
    struct JournalEntry {
        uint64_t seq;           ///< Global order of the write.
        uintptr_t addr;
        uint32_t len;
        WriteState state;
        bool streaming;         ///< wtstore (write-combining) vs cacheable.
        // Small writes are the common case; images are stored inline up
        // to kInlineBytes and spill to the heap beyond that.
        static constexpr size_t kInlineBytes = 64;
        std::unique_ptr<uint8_t[]> spill;   // 2*len bytes when len > inline
        uint8_t inlineBuf[2 * kInlineBytes];

        uint8_t *oldBytes() { return spill ? spill.get() : inlineBuf; }
        uint8_t *newBytes() { return oldBytes() + len; }
    };

    /**
     * Per-thread emulator state.  Holds the thread's streamed stores
     * (write-combining semantics are per-thread, so only this thread's
     * fence retires them) and the keys of cache-pool entries whose
     * lines this thread flushed (clflush + this thread's mfence makes
     * them durable, even if another thread wrote them — the
     * coherent-cache path that asynchronous log truncation depends
     * on).  The claim is shared, not exclusive: the entry stays in the
     * pool, and whichever flushing thread fences first retires it —
     * the formal clflush→fence rule of Px86 is per flush, not per
     * first-flusher.
     */
    struct ThreadScm {
        std::mutex mu;                      // guards entries against crash()
        std::vector<JournalEntry> entries;  // un-retired streamed writes
        std::vector<uint64_t> claimedKeys;  // flushed pool entries
        uint64_t wtBytesSinceFence = 0;     // for the bandwidth model
        std::chrono::steady_clock::time_point wtSeqStart;
    };

    /**
     * Writes living in the simulated (shared, coherent) cache: plain
     * store() results, split at cache-line boundaries (clflush acts on
     * one line, so each line's portion persists independently).
     * Entries flushed by some thread turn kIssued but remain here until
     * a claimant's fence retires them.  Indexed by cache line so
     * flush() can claim them.
     */
    struct CachePool {
        std::mutex mu;
        std::map<uint64_t, JournalEntry> entries;   // seq -> entry
        std::unordered_map<uintptr_t, std::vector<uint64_t>> byLine;
    };

    ThreadScm &self();
    JournalEntry makeEntry(void *addr, const void *src, size_t len,
                           WriteState st, bool streaming);
    void flushImpl(const void *addr, Event ev);
    uint64_t applyRandomSubset(std::vector<JournalEntry> &all);
    void hookEvent(Event ev, const void *addr, size_t len);

    ScmConfig cfg_;
    LatencyAccount account_;
    const uint64_t id_;     ///< Process-unique, for thread-local caching.

    std::mutex regMu_;
    std::map<std::thread::id, std::unique_ptr<ThreadScm>> threads_;
    CachePool cache_;

    std::atomic<uint64_t> seq_{0};
    std::atomic<uint64_t> eventNo_{0};
    std::atomic<bool> halted_{false};

    mutable std::mutex hookMu_;
    WriteHook hook_;
    std::atomic<bool> hasHook_{false};  ///< Skip hookMu_ when no hook set.

    // Stats: lock-free per-thread-sharded counters; a snapshot sums the
    // shards (never torn, at worst slightly stale).  This context also
    // registers itself with the obs::StatsRegistry and emits these
    // values under "scm.*" whenever it is the published context.
    obs::ShardedCounter nStores_, nWtStores_, nFlushes_, nFences_,
        bytesStreamed_, bytesStored_;
    uint64_t statsSourceToken_ = 0;
};

/** Human-readable name of a persistence event kind. */
const char *eventName(ScmContext::Event ev);

/**
 * The published SCM context: the one setCtx() installed, else a shared
 * default.  It is the context the "scm.*" stats keys report, and the one
 * top-level programs (benchmarks, the mn_kvd daemon) look up.  Library
 * layers never resolve it: each keeps the context it was built on.
 */
ScmContext &ctx();

/**
 * Publish @p c (nullptr restores the default).  A context that is
 * destroyed while published unpublishes itself.
 */
void setCtx(ScmContext *c);

} // namespace mnemosyne::scm

#endif // MNEMOSYNE_SCM_SCM_H_
