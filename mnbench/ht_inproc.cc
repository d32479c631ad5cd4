/**
 * @file
 * ht_inproc: the paper's section 6.3 / Figure 5 hash-table shape, driven
 * in-process through ds::PHashTable on one application thread.
 *
 * Set-up (repeated --setups times, each into a fresh region directory):
 * construct the Runtime and preload --keys keys.  The last set-up is kept
 * for a closed-loop timed window of 50% get (uniform over live keys) and
 * 50% writes alternating put-of-a-new-key with del-of-the-oldest-key, so
 * the live set stays at --keys and every write allocates or frees.  Every
 * get is checked against the exact value last written.  Afterwards the
 * Runtime is reopened and the live key set is compared entry by entry.
 *
 * With MNEMOSYNE_STATS=1 the window is traced: registry and SCM counter
 * snapshots bracket it, and each PHashTable call is recorded as a span.
 */

#include <algorithm>
#include <bit>
#include <deque>
#include <filesystem>
#include <memory>

#include "bench/bench_util.h"
#include "common.h"
#include "ds/phash_table.h"
#include "obs/stats_registry.h"

namespace mnbench {

namespace {

using namespace mnemosyne;

struct HtOptions {
    std::string dir;
    uint64_t seed = 1;
    double seconds = 10;
    double warmup = 0.5;
    int setups = 3;
    uint64_t keys = 100000;
    size_t value = 64;
    std::string traceFile;
};

/** Key name of index @p i, in a caller-provided buffer. */
std::string_view
keyOf(uint64_t i, char (&buf)[24])
{
    const int n = std::snprintf(buf, sizeof(buf), "h%011llu",
                                (unsigned long long)i);
    return std::string_view(buf, size_t(n));
}

/** Value stored under key index @p i: its sequence number is i + 1. */
void
valueOf(uint64_t i, size_t size, std::string_view key, std::string &v)
{
    fillValue(v, size, key, i + 1);
}

RuntimeConfig
runtimeConfig(const std::string &dir)
{
    // The paper's default: synchronous truncation, group commit off.
    return bench::paperRuntimeConfig(dir, mtm::Truncation::kSync, 128);
}

double
msOf(std::chrono::nanoseconds d)
{
    return double(d.count()) / 1e6;
}

std::string
scmDelta(const scm::ScmStats &a, const scm::ScmStats &b)
{
    JsonObj o;
    o.num("stores", double(b.stores - a.stores))
        .num("wtstores", double(b.wtstores - a.wtstores))
        .num("flushes", double(b.flushes - a.flushes))
        .num("fences", double(b.fences - a.fences))
        .num("bytes_streamed", double(b.bytes_streamed - a.bytes_streamed))
        .num("bytes_stored", double(b.bytes_stored - a.bytes_stored))
        .num("delay_ns", double(b.delay_ns - a.delay_ns));
    return o.text();
}

} // namespace

int
runHtInproc(int argc, char **argv)
{
    HtOptions opt;
    opt.dir = argOr(argc, argv, "--dir", "");
    opt.seed = std::stoull(argOr(argc, argv, "--seed", "1"));
    opt.seconds = std::stod(argOr(argc, argv, "--seconds", "10"));
    opt.setups = std::stoi(argOr(argc, argv, "--setups", "3"));
    opt.keys = std::stoull(argOr(argc, argv, "--keys", "100000"));
    opt.traceFile = argOr(argc, argv, "--trace-file", "");
    if (opt.dir.empty() || opt.setups < 1 || opt.seconds <= 0 ||
        opt.keys < 1) {
        std::fprintf(stderr, "mnbench ht: need --dir, --setups >= 1, "
                             "--keys >= 1\n");
        return 2;
    }
    // Load factor between 0.5 and 1.
    const size_t buckets = std::bit_ceil(size_t(opt.keys));
    const bool traced = obs::enabled();

    scm::ScmContext ctx(bench::paperScmConfig());
    scm::setCtx(&ctx);

    char kb[24];
    std::string val, got;
    uint64_t attempted = 0, failed = 0;

    // -- set-up, repeated: Runtime construction + preload -----------------
    std::vector<double> setupS, runtimeMs, preloadS, reconMs, scavMs,
        replayMs;
    std::unique_ptr<Runtime> rt;
    std::unique_ptr<ds::PHashTable> table;
    std::string liveDir;
    for (int s = 0; s < opt.setups; ++s) {
        liveDir = opt.dir + "/ht" + std::to_string(s);
        std::filesystem::remove_all(liveDir);
        std::filesystem::create_directories(liveDir);
        const auto t0 = Clock::now();
        rt = std::make_unique<Runtime>(runtimeConfig(liveDir));
        const auto t1 = Clock::now();
        table = std::make_unique<ds::PHashTable>(*rt, "mnbench_ht",
                                                 buckets);
        for (uint64_t i = 0; i < opt.keys; ++i) {
            const std::string_view k = keyOf(i, kb);
            valueOf(i, opt.value, k, val);
            table->put(k, val);
        }
        const auto t2 = Clock::now();
        setupS.push_back(double(nsSince(t0, t2)) / 1e9);
        runtimeMs.push_back(double(nsSince(t0, t1)) / 1e6);
        preloadS.push_back(double(nsSince(t1, t2)) / 1e9);
        const ReincarnationStats r = rt->reincarnation();
        reconMs.push_back(msOf(r.region_reconstruct));
        scavMs.push_back(msOf(r.heap_scavenge));
        replayMs.push_back(msOf(r.txn_replay));
        if (s + 1 < opt.setups) {
            table.reset();
            rt.reset();
            std::filesystem::remove_all(liveDir);
        }
    }

    // -- closed-loop window -------------------------------------------------
    std::deque<uint64_t> live;
    for (uint64_t i = 0; i < opt.keys; ++i)
        live.push_back(i);
    uint64_t nextKey = opt.keys;
    bool putNext = true;
    Rng rng(opt.seed);
    Hist putNs, delNs, getNs;
    SpanBuffer spans(traced ? 100000 : 0);
    uint64_t opNo = 0;

    // One op, checked; returns its completion time.  Its latency goes
    // into @p win (null during warm-up).
    auto oneOp = [&](Window *win) {
        const bool isRead = rng.next() & 1;
        Clock::time_point t0, t1;
        const char *name;
        Hist *dsHist;
        bool ok;
        if (isRead) {
            const uint64_t i = live[rng.below(live.size())];
            const std::string_view k = keyOf(i, kb);
            t0 = Clock::now();
            ok = table->get(k, &got);
            t1 = Clock::now();
            uint64_t seq = 0;
            ok = ok && checkValue(k, got, opt.value, &seq) && seq == i + 1;
            name = "PHashTable::get";
            dsHist = &getNs;
        } else if (putNext) {
            const uint64_t i = nextKey++;
            const std::string_view k = keyOf(i, kb);
            valueOf(i, opt.value, k, val);
            t0 = Clock::now();
            table->put(k, val);
            t1 = Clock::now();
            live.push_back(i);
            ok = true;
            name = "PHashTable::put";
            dsHist = &putNs;
        } else {
            const uint64_t i = live.front();
            live.pop_front();
            const std::string_view k = keyOf(i, kb);
            t0 = Clock::now();
            ok = table->del(k);
            t1 = Clock::now();
            name = "PHashTable::del";
            dsHist = &delNs;
        }
        if (!isRead)
            putNext = !putNext;
        attempted++;
        if (!ok)
            failed++;
        if (!win)
            return t1;
        const uint64_t ns = nsSince(t0, t1);
        win->record(isRead, t1, ns);
        if (traced) {
            dsHist->record(ns);
            spans.add(name, 1, ++opNo, t0, t1);
        }
        return t1;
    };

    const auto warmEnd =
        Clock::now() + std::chrono::microseconds(int64_t(opt.warmup * 1e6));
    while (oneOp(nullptr) < warmEnd) {
    }

    std::string statBefore, statAfter;
    scm::ScmStats s0{}, s1{};
    if (traced) {
        obs::StatsRegistry::instance().resetAll();
        statBefore = obs::StatsRegistry::instance().jsonSnapshot();
        s0 = ctx.statsSnapshot();
    }
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::microseconds(int64_t(opt.seconds * 1e6));
    Window win(start, opt.seconds);
    while (oneOp(&win) < deadline) {
    }
    const double wall = secondsSince(start);
    const double cpu = cpuSeconds() - cpu0;
    if (traced) {
        s1 = ctx.statsSnapshot();
        statAfter = obs::StatsRegistry::instance().jsonSnapshot();
    }

    // -- reopen and check the live key set ----------------------------------
    table.reset();
    rt.reset();
    rt = std::make_unique<Runtime>(runtimeConfig(liveDir));
    table = std::make_unique<ds::PHashTable>(*rt, "mnbench_ht", buckets);
    std::vector<uint64_t> want(live.begin(), live.end());
    std::sort(want.begin(), want.end());
    std::vector<uint64_t> seen;
    uint64_t badValues = 0;
    table->forEach([&](std::string_view k, std::string_view v) {
        uint64_t seq = 0;
        if (!checkValue(k, v, opt.value, &seq) || seq == 0 ||
            keyOf(seq - 1, kb) != k)
            badValues++;
        else
            seen.push_back(seq - 1);
    });
    std::sort(seen.begin(), seen.end());
    std::vector<uint64_t> missing, extra;
    std::set_difference(want.begin(), want.end(), seen.begin(), seen.end(),
                        std::back_inserter(missing));
    std::set_difference(seen.begin(), seen.end(), want.begin(), want.end(),
                        std::back_inserter(extra));
    attempted += want.size();
    failed += badValues + missing.size() + extra.size() +
              (table->size() == want.size() ? 0 : 1);
    table.reset();
    rt.reset();
    std::filesystem::remove_all(opt.dir);

    if (traced && !opt.traceFile.empty() &&
        !spans.writeChromeTrace(opt.traceFile, "mnbench ht_inproc"))
        std::fprintf(stderr, "mnbench ht: cannot write %s\n",
                     opt.traceFile.c_str());

    JsonObj setup;
    setup.nums("setup_s", setupS)
        .nums("runtime_ms", runtimeMs)
        .nums("preload_s", preloadS)
        .nums("region_reconstruct_ms", reconMs)
        .nums("heap_scavenge_ms", scavMs)
        .nums("txn_replay_ms", replayMs);
    JsonObj out;
    out.num("attempted", double(attempted))
        .num("failed", double(failed))
        .num("window_s", wall)
        .raw("window", windowSummary(win, wall))
        .raw("setup", setup.text())
        .num("peak_rss_mb", peakRssMb())
        .num("client_cpu_s", cpu);
    if (traced) {
        JsonObj ds;
        ds.num("put_us_p50", putNs.quantile(0.5) / 1e3)
            .num("del_us_p50", delNs.quantile(0.5) / 1e3)
            .num("get_us_p50", getNs.quantile(0.5) / 1e3)
            .num("puts", double(putNs.size()))
            .num("dels", double(delNs.size()))
            .num("gets", double(getNs.size()));
        out.raw("ds", ds.text())
            .raw("scm", scmDelta(s0, s1))
            .raw("stat_before", statBefore)
            .raw("stat_after", statAfter)
            .num("spans", double(spans.size()))
            .num("spans_dropped", double(spans.dropped()));
    }
    std::printf("%s\n", out.text().c_str());
    return failed ? 1 : 0;
}

} // namespace mnbench
