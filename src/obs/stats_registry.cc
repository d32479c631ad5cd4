#include "obs/stats_registry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/flight_recorder.h"

namespace mnemosyne::obs {

void
Sink::emit(const std::string &key, uint64_t v)
{
    Value &val = scalars_[key];
    if (val.is_float)
        val.d += double(v);
    else
        val.u += v;
}

void
Sink::emit(const std::string &key, double v)
{
    Value &val = scalars_[key];
    if (!val.is_float) {
        val.d = double(val.u);
        val.is_float = true;
    }
    val.d += v;
}

void
Sink::emitArray(const std::string &key, const std::vector<uint64_t> &v)
{
    auto &dst = arrays_[key];
    if (dst.size() < v.size())
        dst.resize(v.size(), 0);
    for (size_t i = 0; i < v.size(); ++i)
        dst[i] += v[i];
}

StatsRegistry &
StatsRegistry::instance()
{
    static StatsRegistry reg;
    return reg;
}

void
StatsRegistry::add(Counter *c)
{
    std::lock_guard<std::mutex> g(mu_);
    counters_.push_back(c);
}

void
StatsRegistry::remove(Counter *c)
{
    std::lock_guard<std::mutex> g(mu_);
    std::erase(counters_, c);
}

void
StatsRegistry::add(HdrHistogram *h)
{
    std::lock_guard<std::mutex> g(mu_);
    hdrs_.push_back(h);
}

void
StatsRegistry::remove(HdrHistogram *h)
{
    std::lock_guard<std::mutex> g(mu_);
    std::erase(hdrs_, h);
}

uint64_t
StatsRegistry::addSource(Source fn)
{
    std::lock_guard<std::mutex> g(mu_);
    const uint64_t token = nextToken_++;
    sources_.emplace(token, std::move(fn));
    return token;
}

void
StatsRegistry::removeSource(uint64_t token)
{
    std::lock_guard<std::mutex> g(mu_);
    sources_.erase(token);
}

StatsRegistry::Members
StatsRegistry::members() const
{
    Members m;
    std::lock_guard<std::mutex> g(mu_);
    m.counters = counters_;
    m.hdrs = hdrs_;
    m.sources.reserve(sources_.size());
    for (const auto &[token, fn] : sources_) {
        (void)token;
        m.sources.push_back(fn);
    }
    return m;
}

void
StatsRegistry::collect(Sink &sink) const
{
    const Members m = members();
    for (const Counter *c : m.counters) {
        sink.emit(c->key(), c->value());
        if (c->breakdown()) {
            const auto shards = c->perShard();
            std::vector<uint64_t> v(shards.begin(), shards.end());
            while (!v.empty() && v.back() == 0)
                v.pop_back();
            sink.emitArray(std::string(c->key()) + ".per_thread", v);
        }
    }
    for (const HdrHistogram *h : m.hdrs) {
        const std::string key = h->key();
        const HdrHistogram::Data d = h->data();
        sink.emit(key + ".count", d.count);
        sink.emit(key + ".sum", d.sum);
        sink.emit(key + ".p50", d.quantile(0.50));
        sink.emit(key + ".p90", d.quantile(0.90));
        sink.emit(key + ".p95", d.quantile(0.95));
        sink.emit(key + ".p99", d.quantile(0.99));
        sink.emit(key + ".p999", d.quantile(0.999));
        sink.emit(key + ".max", d.max);
        sink.emit(key + ".overflow", d.overflow);
    }
    for (const Source &src : m.sources)
        src(sink);
}

StatsRegistry::RawSnapshot
StatsRegistry::rawSnapshot() const
{
    RawSnapshot snap;
    snap.when_ns = nowNs();

    const Members m = members();
    Sink sink;
    for (const Counter *c : m.counters)
        sink.emit(c->key(), c->value());
    for (const Source &src : m.sources)
        src(sink);
    snap.scalars = std::move(sink.scalars_);

    // HdrHistograms keep their full bucket arrays (summed per key) so
    // snapshot differences yield exact interval percentiles.
    for (const HdrHistogram *h : m.hdrs) {
        auto [it, fresh] = snap.hdrs.try_emplace(h->key());
        if (fresh)
            it->second = h->data();
        else
            it->second.merge(h->data());
    }
    return snap;
}

namespace {

void
appendJsonValue(std::string &out, const Sink::Value &v)
{
    char buf[64];
    if (v.is_float)
        std::snprintf(buf, sizeof(buf), "%.6g", v.d);
    else
        std::snprintf(buf, sizeof(buf), "%" PRIu64, v.u);
    out += buf;
}

} // namespace

std::string
StatsRegistry::jsonSnapshot() const
{
    Sink sink;
    collect(sink);

    std::string out = "{";
    bool first = true;
    // Both maps are key-sorted; merge them into one sorted object.
    auto sit = sink.scalars_.begin();
    auto ait = sink.arrays_.begin();
    auto emitKey = [&](const std::string &key) {
        if (!first)
            out += ",";
        first = false;
        out += "\"";
        out += key;
        out += "\":";
    };
    while (sit != sink.scalars_.end() || ait != sink.arrays_.end()) {
        const bool takeScalar =
            ait == sink.arrays_.end() ||
            (sit != sink.scalars_.end() && sit->first <= ait->first);
        if (takeScalar) {
            emitKey(sit->first);
            appendJsonValue(out, sit->second);
            ++sit;
        } else {
            emitKey(ait->first);
            out += "[";
            for (size_t i = 0; i < ait->second.size(); ++i) {
                if (i > 0)
                    out += ",";
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%" PRIu64, ait->second[i]);
                out += buf;
            }
            out += "]";
            ++ait;
        }
    }
    out += "}";
    return out;
}

std::string
StatsRegistry::textSnapshot() const
{
    Sink sink;
    collect(sink);

    size_t width = 0;
    for (const auto &[key, v] : sink.scalars_) {
        (void)v;
        width = std::max(width, key.size());
    }
    std::ostringstream os;
    for (const auto &[key, v] : sink.scalars_) {
        os << key << std::string(width + 2 - key.size(), ' ');
        if (v.is_float)
            os << v.d;
        else
            os << v.u;
        os << "\n";
    }
    for (const auto &[key, arr] : sink.arrays_) {
        os << key << "  [";
        for (size_t i = 0; i < arr.size(); ++i)
            os << (i ? "," : "") << arr[i];
        os << "]\n";
    }
    return os.str();
}

void
StatsRegistry::resetAll()
{
    const Members m = members();
    for (Counter *c : m.counters)
        c->reset();
    for (HdrHistogram *h : m.hdrs)
        h->reset();
}

void
shutdownDump()
{
    if (enabled()) {
        const std::string json = StatsRegistry::instance().jsonSnapshot();
        if (const char *path = std::getenv("MNEMOSYNE_STATS_FILE")) {
            if (std::FILE *f = std::fopen(path, "a")) {
                std::fprintf(f, "%s\n", json.c_str());
                std::fclose(f);
            } else {
                std::fprintf(stderr,
                             "mnemosyne: cannot append stats to %s; "
                             "dumping to stderr\n%s\n",
                             path, json.c_str());
            }
        } else {
            std::fprintf(stderr, "%s\n", json.c_str());
        }
    }
    if (const char *path = std::getenv("MNEMOSYNE_TRACE_FILE")) {
        if (std::FILE *f = std::fopen(path, "w")) {
            std::fprintf(f, "%s\n",
                         FlightRecorder::instance().chromeJson().c_str());
            std::fclose(f);
        } else {
            std::fprintf(stderr, "mnemosyne: cannot write trace to %s\n",
                         path);
        }
    }
}

} // namespace mnemosyne::obs
