#include "obs/phase.h"

#include <cinttypes>
#include <cstdio>

namespace mnemosyne::obs {

uint64_t
PhaseResult::value(const std::string &key) const
{
    const auto it = scalars.find(key);
    if (it == scalars.end())
        return 0;
    return it->second.is_float ? uint64_t(it->second.d) : it->second.u;
}

double
PhaseResult::valueF(const std::string &key) const
{
    const auto it = scalars.find(key);
    if (it == scalars.end())
        return 0.0;
    return it->second.is_float ? it->second.d : double(it->second.u);
}

uint64_t
PhaseResult::hdrQuantile(const std::string &key, double q) const
{
    const auto it = hdrs.find(key);
    return it == hdrs.end() ? 0 : it->second.quantile(q);
}

uint64_t
PhaseResult::hdrCount(const std::string &key) const
{
    const auto it = hdrs.find(key);
    return it == hdrs.end() ? 0 : it->second.count;
}

namespace {

void
appendKv(std::string &out, bool &first, const std::string &key, uint64_t v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, first ? "" : ",",
                  key.c_str(), v);
    first = false;
    out += buf;
}

} // namespace

std::string
PhaseResult::json() const
{
    std::string out = "{\"name\":\"" + name + "\",\"wall_ns\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, wall_ns);
    out += buf;
    out += ",\"stats\":{";
    bool first = true;
    for (const auto &[key, v] : scalars) {
        if (v.is_float) {
            char fbuf[96];
            std::snprintf(fbuf, sizeof(fbuf), "%s\"%s\":%.6g",
                          first ? "" : ",", key.c_str(), v.d);
            first = false;
            out += fbuf;
        } else {
            appendKv(out, first, key, v.u);
        }
    }
    for (const auto &[key, d] : hdrs) {
        appendKv(out, first, key + ".count", d.count);
        appendKv(out, first, key + ".sum", d.sum);
        appendKv(out, first, key + ".p50", d.quantile(0.50));
        appendKv(out, first, key + ".p90", d.quantile(0.90));
        appendKv(out, first, key + ".p95", d.quantile(0.95));
        appendKv(out, first, key + ".p99", d.quantile(0.99));
        appendKv(out, first, key + ".p999", d.quantile(0.999));
        appendKv(out, first, key + ".overflow", d.overflow);
    }
    out += "}}";
    return out;
}

PhaseResult
diffSnapshots(std::string name, const StatsRegistry::RawSnapshot &begin,
              const StatsRegistry::RawSnapshot &end)
{
    PhaseResult r;
    r.name = std::move(name);
    r.wall_ns =
        end.when_ns > begin.when_ns ? end.when_ns - begin.when_ns : 0;

    for (const auto &[key, ev] : end.scalars) {
        const auto bit = begin.scalars.find(key);
        Sink::Value d;
        if (ev.is_float || (bit != begin.scalars.end() &&
                            bit->second.is_float)) {
            const double e = ev.is_float ? ev.d : double(ev.u);
            const double b =
                bit == begin.scalars.end()
                    ? 0.0
                    : (bit->second.is_float ? bit->second.d
                                            : double(bit->second.u));
            d.is_float = true;
            d.d = e - b;
        } else {
            const uint64_t b =
                bit == begin.scalars.end() ? 0 : bit->second.u;
            d.u = ev.u > b ? ev.u - b : 0;
        }
        r.scalars.emplace(key, d);
    }

    for (const auto &[key, ed] : end.hdrs) {
        const auto bit = begin.hdrs.find(key);
        r.hdrs.emplace(key, bit == begin.hdrs.end() ? ed
                                                    : ed - bit->second);
    }
    return r;
}

Phase::Phase(std::string name)
    : name_(std::move(name)),
      begin_(StatsRegistry::instance().rawSnapshot())
{
}

PhaseResult
Phase::finish()
{
    if (finished_) {
        // Already recorded: return the logged copy if still present,
        // else an empty result (callers normally finish() once).
        for (const auto &r : PhaseLog::instance().results())
            if (r.name == name_)
                return r;
        PhaseResult r;
        r.name = name_;
        return r;
    }
    finished_ = true;
    PhaseResult r = diffSnapshots(
        name_, begin_, StatsRegistry::instance().rawSnapshot());
    PhaseLog::instance().record(r);
    return r;
}

Phase::~Phase()
{
    if (!finished_)
        (void)finish();
}

PhaseLog &
PhaseLog::instance()
{
    static PhaseLog log;
    return log;
}

void
PhaseLog::record(PhaseResult r)
{
    std::lock_guard<std::mutex> g(mu_);
    results_.push_back(std::move(r));
}

std::vector<PhaseResult>
PhaseLog::results() const
{
    std::lock_guard<std::mutex> g(mu_);
    return results_;
}

std::string
PhaseLog::json() const
{
    const auto results = this->results();
    std::string out = "{\"phases\":[";
    for (size_t i = 0; i < results.size(); ++i) {
        if (i)
            out += ",";
        out += results[i].json();
    }
    out += "]}";
    return out;
}

void
PhaseLog::clear()
{
    std::lock_guard<std::mutex> g(mu_);
    results_.clear();
}

} // namespace mnemosyne::obs
