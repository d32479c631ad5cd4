#include "common.h"

#include <sys/resource.h>

namespace mnbench {

std::string
windowSummary(const Window &w, double seconds)
{
    // Per second: completions, and quantiles of each kind it completed.
    std::vector<double> rate, r50, r99, w50, w99;
    for (const Window::Second &s : w.seconds()) {
        rate.push_back(double(s.read.size() + s.write.size()));
        if (s.read.size()) {
            r50.push_back(s.read.quantile(0.50) / 1e3);
            r99.push_back(s.read.quantile(0.99) / 1e3);
        }
        if (s.write.size()) {
            w50.push_back(s.write.quantile(0.50) / 1e3);
            w99.push_back(s.write.quantile(0.99) / 1e3);
        }
    }
    const uint64_t ops = w.read.size() + w.write.size();
    JsonObj o;
    o.num("ops_per_s", median(rate))
        .num("read_p50_us", median(r50))
        .num("read_p99_us", median(r99))
        .num("write_p50_us", median(w50))
        .num("write_p99_us", median(w99))
        .num("seconds", double(w.seconds().size()))
        .num("whole_ops_per_s", seconds > 0 ? double(ops) / seconds : 0)
        .num("whole_read_p50_us", w.read.quantile(0.50) / 1e3)
        .num("whole_read_p99_us", w.read.quantile(0.99) / 1e3)
        .num("whole_write_p50_us", w.write.quantile(0.50) / 1e3)
        .num("whole_write_p99_us", w.write.quantile(0.99) / 1e3)
        .num("reads", double(w.read.size()))
        .num("writes", double(w.write.size()));
    return o.text();
}

bool
SpanBuffer::writeChromeTrace(const std::string &path,
                             const char *process) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const Clock::time_point base =
        spans_.empty() ? Clock::now() : spans_.front().t0;
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
                 "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
                 "\"args\":{\"name\":\"%s\"}}",
                 process);
    for (const Span &s : spans_) {
        const double ts = double(nsSince(base, s.t0)) / 1e3;
        const double dur = double(nsSince(s.t0, s.t1)) / 1e3;
        std::fprintf(f,
                     ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                     s.track, s.name, ts, dur, (unsigned long long)s.id);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

std::string
argOr(int argc, char **argv, const char *flag, const std::string &dflt)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return dflt;
}

} // namespace mnbench
