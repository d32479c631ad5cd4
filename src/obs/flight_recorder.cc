#include "obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <tuple>

namespace mnemosyne::obs {

const char *
spanName(Span s)
{
    switch (s) {
    case Span::kReadBarrier:
        return "read_barrier";
    case Span::kWriteBarrier:
        return "write_barrier";
    case Span::kValidate:
        return "validate";
    case Span::kLogStage:
        return "log_stage";
    case Span::kLogAppend:
        return "log_append";
    case Span::kLogFence:
        return "log_fence";
    case Span::kWriteBack:
        return "write_back";
    case Span::kTruncate:
        return "truncate";
    case Span::kSpanCount:
        break;
    }
    return "?";
}

namespace {

uint32_t
sat32(uint64_t v)
{
    return v > UINT32_MAX ? UINT32_MAX : uint32_t(v);
}

void
packRecord(const FlightRecord &rec, uint64_t (&words)[kFlightRecordWords])
{
    static_assert(sizeof(words) >= sizeof(FlightRecord));
    std::memset(words, 0, sizeof(words));
    std::memcpy(words, &rec, sizeof(rec));
}

void
unpackRecord(const uint64_t (&words)[kFlightRecordWords], FlightRecord &rec)
{
    std::memcpy(&rec, words, sizeof(rec));
}

} // namespace

namespace detail {
constinit thread_local FlightFrame *gFlightFrame = nullptr;
} // namespace detail

/** Thread-local recorder state: the in-flight frame plus this thread's
 *  ring, parked on the recorder's free list when the thread exits. */
struct FlightThreadState {
    FlightRecorder::Ring *ring = nullptr;
    FlightFrame frame;

    ~FlightThreadState()
    {
        detail::gFlightFrame = nullptr; // no dangling fast-path cache
        if (ring)
            FlightRecorder::instance().returnRing(ring);
    }

    static FlightThreadState &
    current()
    {
        thread_local FlightThreadState state;
        return state;
    }
};

FlightRecorder::Ring::Ring(size_t n) : slots(n == 0 ? 1 : n) {}

void
FlightRecorder::Ring::publish(const FlightRecord &rec)
{
    const uint64_t h = head.load(std::memory_order_relaxed);
    Slot &slot = slots[h % slots.size()];

    uint64_t words[kFlightRecordWords];
    packRecord(rec, words);

    const uint64_t s = slot.seq.load(std::memory_order_relaxed);
    slot.seq.store(s + 1, std::memory_order_release); // odd: writing
    std::atomic_thread_fence(std::memory_order_release);
    for (size_t i = 0; i < kFlightRecordWords; ++i)
        slot.w[i].store(words[i], std::memory_order_relaxed);
    slot.seq.store(s + 2, std::memory_order_release); // even: stable
    head.store(h + 1, std::memory_order_release);
}

std::vector<FlightRecord>
FlightRecorder::Ring::snapshot() const
{
    std::vector<FlightRecord> out;
    const uint64_t h = head.load(std::memory_order_acquire);
    const size_t n = slots.size();
    const uint64_t lo = h > n ? h - n : 0;
    out.reserve(size_t(h - lo));
    for (uint64_t i = lo; i < h; ++i) {
        const Slot &slot = slots[i % n];
        // Seqlock read: bounded retries, drop the slot if the owner
        // keeps overwriting it (it only holds newer data anyway).
        for (int attempt = 0; attempt < 4; ++attempt) {
            const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
            if (s1 & 1)
                continue;
            uint64_t words[kFlightRecordWords];
            for (size_t w = 0; w < kFlightRecordWords; ++w)
                words[w] = slot.w[w].load(std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (slot.seq.load(std::memory_order_relaxed) != s1)
                continue;
            FlightRecord rec;
            unpackRecord(words, rec);
            if (rec.total_ns != 0 || rec.txn_id != 0)
                out.push_back(rec);
            break;
        }
    }
    return out;
}

void
FlightRecorder::Ring::clear()
{
    for (auto &slot : slots) {
        const uint64_t s = slot.seq.load(std::memory_order_relaxed);
        slot.seq.store(s + 1, std::memory_order_release);
        for (auto &w : slot.w)
            w.store(0, std::memory_order_relaxed);
        slot.seq.store(s + 2, std::memory_order_release);
    }
    head.store(0, std::memory_order_release);
}

FlightRecorder &
FlightRecorder::instance()
{
    // Immortal: thread-exit hooks (returnRing) may run during process
    // teardown, after static destructors would have fired.
    static FlightRecorder *r = new FlightRecorder();
    return *r;
}

FlightRecorder::FlightRecorder()
{
    if (const char *v = std::getenv("MNEMOSYNE_FLIGHT_RING")) {
        const long n = std::strtol(v, nullptr, 10);
        if (n >= 4 && n <= (1 << 20))
            ringSlots_ = size_t(n);
    }
    if (const char *v = std::getenv("MNEMOSYNE_FLIGHT_SAMPLE")) {
        const long n = std::strtol(v, nullptr, 10);
        if (n >= 0)
            sampleEvery_.store(uint32_t(n), std::memory_order_relaxed);
        enabled_.store(true, std::memory_order_relaxed);
    }
    if (const char *v = std::getenv("MNEMOSYNE_FLIGHT_TRAP_STRIDE")) {
        const long n = std::strtol(v, nullptr, 10);
        if (n >= 0)
            trapStride_.store(uint32_t(n), std::memory_order_relaxed);
    }
    if (detail::envTruthy("MNEMOSYNE_FLIGHT") ||
        std::getenv("MNEMOSYNE_TRACE_FILE") != nullptr)
        enabled_.store(true, std::memory_order_relaxed);
}

void
FlightRecorder::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

void
FlightRecorder::setSampleEvery(uint32_t n)
{
    sampleEvery_.store(n, std::memory_order_relaxed);
}

void
FlightRecorder::setTrapStride(uint32_t n)
{
    trapStride_.store(n, std::memory_order_relaxed);
}

FlightRecorder::Ring *
FlightRecorder::threadRing()
{
    FlightThreadState &st = FlightThreadState::current();
    if (!st.ring) {
        std::lock_guard<std::mutex> g(ringsMu_);
        if (!freeRings_.empty()) {
            st.ring = freeRings_.back();
            freeRings_.pop_back();
            st.ring->clear();
        } else {
            st.ring = new Ring(ringSlots_);
            rings_.push_back(st.ring);
        }
        st.ring->tid.store(uint32_t(threadOrdinal()),
                           std::memory_order_relaxed);
    }
    return st.ring;
}

void
FlightRecorder::returnRing(Ring *r)
{
    std::lock_guard<std::mutex> g(ringsMu_);
    freeRings_.push_back(r);
}

FlightFrame *
FlightRecorder::beginTxnSlow(uint64_t txn_id)
{
    // First transaction on this thread: materialize the thread state
    // (ring claim happens lazily at first publish), cache the frame in
    // the fast-access thread_local, and re-enter the inline fast path.
    detail::gFlightFrame = &FlightThreadState::current().frame;
    return beginTxn(txn_id);
}

FlightFrame *
FlightRecorder::beginTxnSampled(FlightFrame *f, uint64_t txn_id)
{
    // Countdown instead of modulo (the sampling period is a runtime
    // value, and an integer divide per transaction is measurable);
    // the inline caller detected the countdown expiring.
    f->txn_counter = 0;
    f->sampled = true;
    f->timed = true;
    f->txn_id = txn_id;
    f->begin_tick = tickNow();
    f->begin_ns = nowNs();
    std::memset(f->span_ticks, 0, sizeof(f->span_ticks));
    f->reads = f->writes = f->redo_words = f->log_bytes = 0;
    f->fences = f->flushes = 0;
    return f;
}

void
FlightRecorder::endTxnTimed(FlightFrame *f, uint32_t end_flags,
                            uint64_t commit_ts)
{
    const uint64_t total_ns = ticksToNs(tickNow() - f->begin_tick);
    // Cheap exit for the common case: unsampled and not slower than the
    // slow-trap's admission threshold (0 means the trap has room).
    const uint64_t slow_min = slowMin_.load(std::memory_order_relaxed);
    if (!f->sampled && slow_min != 0 && total_ns <= slow_min)
        return;

    FlightRecord rec;
    rec.txn_id = f->txn_id;
    rec.total_ns = total_ns;
    rec.commit_ts = commit_ts;
    rec.tid = uint32_t(threadOrdinal());
    rec.flags = end_flags;
    if (f->sampled) {
        rec.flags |= kFlightSampled;
        rec.begin_ns = f->begin_ns;
        for (size_t i = 0; i < size_t(Span::kSpanCount); ++i)
            rec.span_ns[i] = sat32(ticksToNs(f->span_ticks[i]));
        rec.reads = f->reads;
        rec.writes = f->writes;
        rec.redo_words = f->redo_words;
        rec.log_bytes = f->log_bytes;
        rec.fences = f->fences;
        rec.flushes = f->flushes;
        threadRing()->publish(rec);
        published_.fetch_add(1, std::memory_order_relaxed);
    } else {
        // Unsampled transactions skip all frame bookkeeping, so span and
        // count detail is unavailable; reconstruct the begin timestamp
        // retroactively.  Only trap candidates reach this branch, so the
        // nowNs() call is rare.
        rec.begin_ns = nowNs() - total_ns;
    }
    if (slow_min == 0 || total_ns > slow_min)
        maybeTrap(rec);
}

void
FlightRecorder::maybeTrap(FlightRecord &rec)
{
    std::lock_guard<std::mutex> g(slowMu_);
    rec.flags |= kFlightSlow;
    if (slow_.size() < kSlowSlots) {
        slow_.push_back(rec);
    } else {
        auto victim = std::min_element(
            slow_.begin(), slow_.end(),
            [](const FlightRecord &a, const FlightRecord &b) {
                return a.total_ns < b.total_ns;
            });
        if (rec.total_ns <= victim->total_ns) {
            slowMin_.store(victim->total_ns, std::memory_order_relaxed);
            return;
        }
        *victim = rec;
    }
    if (slow_.size() == kSlowSlots) {
        const auto mit = std::min_element(
            slow_.begin(), slow_.end(),
            [](const FlightRecord &a, const FlightRecord &b) {
                return a.total_ns < b.total_ns;
            });
        slowMin_.store(mit->total_ns, std::memory_order_relaxed);
    }
}

std::vector<FlightRecord>
FlightRecorder::snapshot() const
{
    std::vector<Ring *> rings;
    {
        std::lock_guard<std::mutex> g(ringsMu_);
        rings = rings_;
    }
    std::vector<FlightRecord> out;
    for (const Ring *r : rings) {
        auto recs = r->snapshot();
        out.insert(out.end(), recs.begin(), recs.end());
    }
    return out;
}

std::vector<FlightRecord>
FlightRecorder::threadSnapshot() const
{
    const FlightThreadState &st = FlightThreadState::current();
    return st.ring ? st.ring->snapshot() : std::vector<FlightRecord>{};
}

std::vector<FlightRecord>
FlightRecorder::slowest() const
{
    std::vector<FlightRecord> out;
    {
        std::lock_guard<std::mutex> g(slowMu_);
        out = slow_;
    }
    std::sort(out.begin(), out.end(),
              [](const FlightRecord &a, const FlightRecord &b) {
                  return a.total_ns > b.total_ns;
              });
    return out;
}

void
FlightRecorder::clearThread()
{
    FlightThreadState &st = FlightThreadState::current();
    if (st.ring)
        st.ring->clear();
}

void
FlightRecorder::clearAll()
{
    std::vector<Ring *> rings;
    {
        std::lock_guard<std::mutex> g(ringsMu_);
        rings = rings_;
    }
    for (Ring *r : rings)
        r->clear();
    {
        std::lock_guard<std::mutex> g(slowMu_);
        slow_.clear();
        slowMin_.store(0, std::memory_order_relaxed);
    }
    published_.store(0, std::memory_order_relaxed);
}

namespace {

void
appendRecordJson(std::string &out, const FlightRecord &rec)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"txn\":%" PRIu64 ",\"tid\":%u,\"begin_ns\":%" PRIu64
                  ",\"total_ns\":%" PRIu64 ",\"commit_ts\":%" PRIu64
                  ",\"flags\":%u,\"reads\":%u,\"writes\":%u,"
                  "\"redo_words\":%u,\"log_bytes\":%u,\"fences\":%u,"
                  "\"flushes\":%u,\"spans\":{",
                  rec.txn_id, rec.tid, rec.begin_ns, rec.total_ns,
                  rec.commit_ts, rec.flags, rec.reads, rec.writes,
                  rec.redo_words, rec.log_bytes, rec.fences, rec.flushes);
    out += buf;
    for (size_t i = 0; i < size_t(Span::kSpanCount); ++i) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\":%u", i ? "," : "",
                      spanName(Span(i)), rec.span_ns[i]);
        out += buf;
    }
    out += "}}";
}

} // namespace

std::string
FlightRecorder::recordsJson(const std::vector<FlightRecord> &recs)
{
    std::string out = "[";
    for (size_t i = 0; i < recs.size(); ++i) {
        if (i)
            out += ",";
        appendRecordJson(out, recs[i]);
    }
    out += "]";
    return out;
}

std::string
FlightRecorder::json(size_t max_records) const
{
    std::vector<FlightRecord> recs = snapshot();
    // Newest last: ring records carry begin_ns (sampled), so a global
    // time sort gives a coherent cross-thread tail.
    std::sort(recs.begin(), recs.end(),
              [](const FlightRecord &a, const FlightRecord &b) {
                  return a.begin_ns < b.begin_ns;
              });
    if (max_records > 0 && recs.size() > max_records)
        recs.erase(recs.begin(), recs.end() - ptrdiff_t(max_records));

    char buf[128];
    std::string out = "{";
    std::snprintf(buf, sizeof(buf),
                  "\"enabled\":%s,\"sample_every\":%u,\"trap_stride\":%u,"
                  "\"published\":%" PRIu64 ",",
                  enabled() ? "true" : "false", sampleEvery(), trapStride(),
                  published());
    out += buf;
    out += "\"records\":";
    out += recordsJson(recs);
    out += ",\"slow\":";
    out += recordsJson(slowest());
    out += "}";
    return out;
}

void
FlightRecorder::setThreadName(const std::string &name)
{
    std::lock_guard<std::mutex> g(namesMu_);
    threadNames_[uint32_t(threadOrdinal())] = name;
}

std::string
FlightRecorder::chromeJson() const
{
    // Ring records, plus the slow-trap records no ring holds (unsampled
    // ones, or sampled ones the ring has since overwritten).  A trapped
    // record still in its ring is exported once, flagged slow.
    std::vector<FlightRecord> recs = snapshot();
    std::map<std::tuple<uint32_t, uint64_t, uint64_t>, size_t> inRing;
    for (size_t i = 0; i < recs.size(); ++i)
        inRing.emplace(std::tuple(recs[i].tid, recs[i].txn_id,
                                  recs[i].begin_ns),
                       i);
    for (const FlightRecord &rec : slowest()) {
        const auto it =
            inRing.find(std::tuple(rec.tid, rec.txn_id, rec.begin_ns));
        if (it != inRing.end())
            recs[it->second].flags |= rec.flags;
        else
            recs.push_back(rec);
    }

    std::map<uint32_t, std::string> names;
    {
        std::lock_guard<std::mutex> g(namesMu_);
        names = threadNames_;
    }
    for (const FlightRecord &rec : recs)
        names.try_emplace(rec.tid, "thread " + std::to_string(rec.tid));

    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
                      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":0,\"args\":{\"name\":\"mnemosyne\"}}";
    for (const auto &[tid, name] : names) {
        out += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
               std::to_string(tid) + ",\"args\":{\"name\":\"" + name + "\"}}";
    }
    for (const FlightRecord &rec : recs) {
        const char *name = (rec.flags & kFlightAborted)    ? "txn_abort"
                           : (rec.flags & kFlightReadOnly) ? "txn_readonly"
                                                           : "txn_commit";
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      ",{\"name\":\"%s\",\"cat\":\"mtm\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":",
                      name, rec.tid, double(rec.begin_ns) / 1e3,
                      double(rec.total_ns) / 1e3);
        out += buf;
        appendRecordJson(out, rec);
        out += "}";
    }
    out += "]}";
    return out;
}

} // namespace mnemosyne::obs
