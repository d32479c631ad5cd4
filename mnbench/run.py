#!/usr/bin/env python3
"""Mnemosyne repository benchmark: one command, three workloads.

    python3 mnbench/run.py --workload ht_inproc --seed 1 --seconds 10 --trace 0
    python3 mnbench/run.py --all            # every workload, untraced + traced

Builds the library, mn_kvd and the mnbench program from the checkout's
sources into .bench_build/ (CMake, Release, assertions on), then runs the
workload on the paper's emulated SCM (150 ns per write, 4 GB/s, TSC spin).

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload
once untraced and once with MNEMOSYNE_STATS=1, runs the layer probes, and
reports the per-layer metrics (see mnbench/README.md).  The last line of
standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit status is non-zero when any result is wrong or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(BUILD, "runs")
BUILD_TYPE = "Release"

# A run (after the build) is stopped and fails past this many seconds.
RUN_LIMIT_S = 170
# Every KV workload runs the same server: group commit on, async
# truncation, 150 ns SCM writes, 1 IO thread + 2 workers (below nproc).
SERVER_ARGS = ["--io", "1", "--workers", "2", "--scm-latency-ns", "150",
               "--buckets", "262144"]
SCM_CONFIG = {"write_latency_ns": 150, "write_bandwidth_bytes_per_us": 4096,
              "latency_mode": "spin"}

WORKLOADS = {
    "ht_inproc": {
        "kind": "ht", "keys": 100000, "value": 64, "setups": 5,
        "why": "paper Fig. 5 shape: one thread, sync truncation, no "
               "combiner; every write allocates or frees",
    },
    "kv_pipelined": {
        "kind": "kv", "keys": 200000, "value": 100, "conns": 4, "depth": 16,
        "zipf": 0.99, "setups": 3,
        "why": "throughput regime: 4 conns x 16 in flight, Zipf keys; "
               "commits share fence epochs",
    },
    "kv_single": {
        "kind": "kv", "keys": 10000, "value": 100, "conns": 1, "depth": 1,
        "zipf": 0.0, "setups": 5,
        "why": "latency regime: 1 conn, 1 request in flight; every write "
               "waits alone for its epoch",
    },
}

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# Per-layer metrics in the result line: counts, and times every workload
# measures as continuous values.  Times only some workloads have (server,
# epoch wait, ds spans, stalls, heap attribution) and percentiles read
# from the library's bucketed histograms are in the printed table and
# the summary file.
PER_LAYER = [
    ("scm.fences_per_write", "count"),
    ("scm.flushes_per_write", "count"),
    ("scm.write_bytes_per_write", "B"),
    ("scm.delay_us_per_write", "us"),
    ("log.appends_per_commit", "count"),
    ("log.words_per_commit", "count"),
    ("log.stalls_per_commit", "count"),
    ("mtm.commit_us_mean", "us"),
    ("mtm.redo_words_per_commit", "count"),
    ("mtm.aborts_per_commit", "count"),
    ("mtm.epoch_members_p50", "count"),
    ("mtm.epoch_seals_per_commit", "count"),
    ("mtm.trunc_lines_per_commit", "count"),
    ("mtm.trunc_dedup_words_per_commit", "count"),
    ("heap.pmallocs_per_write", "count"),
    ("heap.pfrees_per_write", "count"),
    ("server.batch_p50", "count"),
    ("server.queue_depth_p99", "count"),
    ("runtime.recover_ms", "ms"),
    ("region.reconstruct_ms", "ms"),
    ("heap.scavenge_ms", "ms"),
    ("mtm.replay_ms", "ms"),
    ("bench.preload_s", "s"),
    ("client.busy_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("scm.fence_ns", "ns"),
    ("scm.flush_fence_ns", "ns"),
    ("log.append_ns_8w", "ns"),
    ("log.append_ns_64w", "ns"),
    ("heap.pmalloc_pfree_ns", "ns"),
    ("mtm.update_txn_ns", "ns"),
    ("attr.scm_us", "us"),
    ("attr.log_us", "us"),
    ("attr.unattributed_us", "us"),
]

TABLE_ONLY = [
    ("mtm.commit_us_p50", "us"),
    ("mtm.commit_us_p99", "us"),
    ("attr.heap_us", "us"),
    ("log.stall_us_p99", "us"),
    ("mtm.epoch_members_mean", "count"),
    ("mtm.epoch_wait_us_p50", "us"),
    ("mtm.epoch_wait_us_p99", "us"),
    ("heap.lock_wait_us_p99", "us"),
    ("ds.put_us_p50", "us"),
    ("ds.del_us_p50", "us"),
    ("ds.get_us_p50", "us"),
    ("server.request_us_p50", "us"),
    ("server.request_us_p99", "us"),
    ("server.wait_us_p50", "us"),
    ("server.wait_us_p99", "us"),
    ("server.outside_us_p50", "us"),
]

_children = []


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and provenance.
# ---------------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("repository sources (src/) not found next to mnbench/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    run_quiet(["cmake", "--build", BUILD, "-j", jobs,
               "--target", "mnbench", "mn_kvd"])


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


def stamp():
    sha = "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # Code only: documentation (*.md) may quote this digest.
    digest = hashlib.sha256()
    for base in ("src", "tools/mn_kvd.cc", "bench/bench_util.h", "mnbench"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not f.endswith(".md"))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)), "build_type": BUILD_TYPE,
            "MN_OBS": "ON", "scm": SCM_CONFIG}


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------

def obs_env(traced, stats_file):
    """Environment with the library's stats gate set as asked; the exit
    dump of a traced process goes to @p stats_file."""
    env = dict(os.environ)
    for k in ("MNEMOSYNE_STATS", "MNEMOSYNE_STATS_PORT", "MNEMOSYNE_STATS_FILE",
              "MNEMOSYNE_TRACE", "MNEMOSYNE_TRACE_FILE"):
        env.pop(k, None)
    if traced:
        env["MNEMOSYNE_STATS"] = "1"
        env["MNEMOSYNE_STATS_FILE"] = stats_file
    return env


def mnbench(args, stats_file=None):
    """Run one mnbench subcommand, traced when @p stats_file is given;
    returns its JSON result line."""
    env = obs_env(stats_file is not None, stats_file)
    proc = subprocess.Popen([os.path.join(BUILD, "mnbench")] + args, env=env,
                            stdout=subprocess.PIPE, text=True)
    _children.append(proc)
    out, _ = proc.communicate()
    _children.remove(proc)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError("mnbench %s exited with %d" % (args[0], proc.returncode))
    return json.loads(lines[-1])


class Server:
    """One mn_kvd process serving a region directory."""

    def __init__(self, directory, traced):
        env = obs_env(traced, directory + ".stats.jsonl")
        if traced:
            env["MNEMOSYNE_STATS_PORT"] = "0"
        os.makedirs(directory, exist_ok=True)
        self.errpath = directory + ".stderr"
        self.err = open(self.errpath, "w")
        self.proc = subprocess.Popen(
            [os.path.join(BUILD, "mn_kvd"), "--dir", directory] + SERVER_ARGS,
            env=env, stdout=subprocess.PIPE, stderr=self.err, text=True)
        _children.append(self.proc)
        self.port = 0
        for line in self.proc.stdout:
            if "listening on 127.0.0.1:" in line:
                self.port = int(line.split("127.0.0.1:")[1].split()[0])
                break
        if not self.port:
            self.stop()
            raise BenchError("mn_kvd did not start")
        self.emitter_port = 0
        if traced:
            with open(self.errpath) as fh:
                for line in fh:
                    if "stats emitter listening on 127.0.0.1:" in line:
                        self.emitter_port = int(line.rsplit(":", 1)[1])
            if not self.emitter_port:
                self.stop()
                raise BenchError("mn_kvd stats emitter did not start")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for mn_kvd")

    def stop(self):
        """Clean shutdown; raises if the server did not exit cleanly."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc in _children:
            _children.remove(self.proc)
        self.err.close()
        if self.proc.returncode != 0:
            raise BenchError("mn_kvd exited with %d" % self.proc.returncode)


def on_timeout(*_):
    raise BenchError("run exceeded %d s" % RUN_LIMIT_S)


def kill_children(*_):
    for p in list(_children):
        if p.poll() is None:
            p.kill()
            p.wait()


# ---------------------------------------------------------------------------
# One run of a workload.
# ---------------------------------------------------------------------------

def run_ht(w, seed, seconds, rundir, setups, trace_file=None):
    args = ["ht", "--dir", os.path.join(rundir, "ht"), "--seed", str(seed),
            "--seconds", str(seconds), "--setups", str(setups),
            "--keys", str(w["keys"])]
    stats_file = None
    if trace_file:
        args += ["--trace-file", trace_file]
        stats_file = os.path.join(rundir, "stats.jsonl")
    return mnbench(args, stats_file)


def kv_args(w, port):
    return ["--port", str(port), "--keys", str(w["keys"]),
            "--value", str(w["value"])]


def run_kv(w, seed, seconds, rundir, setups, trace_file=None):
    traced = bool(trace_file)
    setup = {"setup_s": [], "runtime_ms": [], "preload_s": []}
    attempted = failed = 0
    srv = None
    for i in range(setups):
        directory = os.path.join(rundir, "srv%d" % i)
        t0 = time.perf_counter()
        srv = Server(directory, traced)
        t1 = time.perf_counter()
        pre = mnbench(["kv-preload", "--conns", "2"] + kv_args(w, srv.port))
        t2 = time.perf_counter()
        setup["setup_s"].append(t2 - t0)
        setup["runtime_ms"].append((t1 - t0) * 1e3)
        setup["preload_s"].append(pre["preload_s"])
        attempted += int(pre["attempted"])
        failed += int(pre["failed"])
        if i + 1 < setups:
            srv.stop()
            shutil.rmtree(directory)
    acks = os.path.join(rundir, "acks.bin")
    args = ["kv-load", "--conns", str(w["conns"]), "--depth", str(w["depth"]),
            "--zipf", str(w["zipf"]), "--seed", str(seed),
            "--seconds", str(seconds), "--acks", acks] + kv_args(w, srv.port)
    if traced:
        args += ["--emitter-port", str(srv.emitter_port),
                 "--trace-file", trace_file]
    r = mnbench(args)
    r["peak_rss_mb"] = srv.peak_rss_mb()
    srv.stop()
    # Clean restart on the same region files, then read every key back.
    srv = Server(directory, False)
    ver = mnbench(["kv-verify", "--acks", acks] + kv_args(w, srv.port))
    srv.stop()
    r["attempted"] = int(r["attempted"]) + attempted + int(ver["attempted"])
    r["failed"] = int(r["failed"]) + failed + int(ver["failed"])
    r["setup"] = setup
    return r


def run_workload(name, seed, seconds, setups, trace_file=None):
    w = WORKLOADS[name]
    rundir = os.path.join(RUNS, "%s-s%d-p%d" % (name, seed, os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        fn = run_ht if w["kind"] == "ht" else run_kv
        return fn(w, seed, seconds, rundir, setups, trace_file)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def end_to_end(r):
    win = r["window"]
    return {
        "ops_per_s": win["ops_per_s"],
        "read_p50_us": win["read_p50_us"],
        "read_p99_us": win["read_p99_us"],
        "write_p50_us": win["write_p50_us"],
        "write_p99_us": win["write_p99_us"],
        "setup_s": statistics.median(r["setup"]["setup_s"]),
        "peak_rss_mb": r["peak_rss_mb"],
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run.
# ---------------------------------------------------------------------------

def layer_metrics(traced, untraced, probes):
    """Counter deltas over the traced window, normalised per write/commit."""
    before, after = traced["stat_before"], traced["stat_after"]
    win = traced["window"]

    def d(key):
        return float(after.get(key, 0)) - float(before.get(key, 0))

    def hdr(key):  # histograms were reset when the window opened
        return float(after.get(key, 0))

    def per(x, n):
        return x / n if n else 0.0

    writes = win["writes"]
    commits = d("mtm.commits")
    if "scm" in traced:  # in-process: ScmContext::statsSnapshot deltas
        scm = traced["scm"]
    else:
        scm = {k: d("scm." + k) for k in
               ("fences", "flushes", "bytes_streamed", "delay_ns")}
    m = {}
    m["scm.fences_per_write"] = per(scm["fences"], writes)
    m["scm.flushes_per_write"] = per(scm["flushes"], writes)
    m["scm.write_bytes_per_write"] = per(
        scm["bytes_streamed"] + 64 * scm["flushes"], writes)
    m["scm.delay_us_per_write"] = per(scm["delay_ns"] / 1e3, writes)
    m["log.appends_per_commit"] = per(d("rawl.appends"), commits)
    m["log.words_per_commit"] = per(d("rawl.append_words"), commits)
    m["log.stalls_per_commit"] = per(d("rawl.append_stalls"), commits)
    m["log.stall_us_p99"] = hdr("rawl.append_stall_ns.p99") / 1e3
    m["mtm.commit_us_p50"] = hdr("mtm.commit_ns.p50") / 1e3
    m["mtm.commit_us_p99"] = hdr("mtm.commit_ns.p99") / 1e3
    m["mtm.commit_us_mean"] = per(hdr("mtm.commit_ns.sum") / 1e3,
                                  hdr("mtm.commit_ns.count"))
    m["mtm.redo_words_per_commit"] = per(d("mtm.redo_words"), commits)
    m["mtm.aborts_per_commit"] = per(d("mtm.aborts"), commits)
    m["mtm.epoch_members_p50"] = hdr("mtm.epoch_batch.p50")
    m["mtm.epoch_members_mean"] = per(d("mtm.epoch_members"),
                                      d("mtm.epoch_seals"))
    m["mtm.epoch_seals_per_commit"] = per(d("mtm.epoch_seals"), commits)
    m["mtm.epoch_wait_us_p50"] = hdr("mtm.epoch_wait_ns.p50") / 1e3
    m["mtm.epoch_wait_us_p99"] = hdr("mtm.epoch_wait_ns.p99") / 1e3
    m["mtm.trunc_lines_per_commit"] = per(d("trunc.lines_flushed"), commits)
    m["mtm.trunc_dedup_words_per_commit"] = per(
        d("trunc.writeback_words_deduped"), commits)
    m["heap.pmallocs_per_write"] = per(d("heap.pmallocs"), writes)
    m["heap.pfrees_per_write"] = per(d("heap.pfrees"), writes)
    m["heap.lock_wait_us_p99"] = hdr("heap.lock_wait_ns.p99") / 1e3
    ds = traced.get("ds", {})
    for op in ("put", "del", "get"):
        m["ds.%s_us_p50" % op] = ds.get("%s_us_p50" % op, 0.0)
    m["server.request_us_p50"] = hdr("server.request_ns.p50") / 1e3
    m["server.request_us_p99"] = hdr("server.request_ns.p99") / 1e3
    m["server.wait_us_p50"] = hdr("server.wait_ns.p50") / 1e3
    m["server.wait_us_p99"] = hdr("server.wait_ns.p99") / 1e3
    m["server.batch_p50"] = hdr("server.worker_batch.p50")
    m["server.queue_depth_p99"] = hdr("server.queue_depth.p99")
    m["server.outside_us_p50"] = (
        win["read_p50_us"] - m["server.request_us_p50"]
        if hdr("server.request_ns.count") else 0.0)

    setup = traced["setup"]
    if "region_reconstruct_ms" in setup:
        m["region.reconstruct_ms"] = statistics.median(
            setup["region_reconstruct_ms"])
        m["heap.scavenge_ms"] = statistics.median(setup["heap_scavenge_ms"])
        m["mtm.replay_ms"] = statistics.median(setup["txn_replay_ms"])
    else:  # the server's Runtime reports its reincarnation over STAT
        m["region.reconstruct_ms"] = hdr("reinc.region_reconstruct_ns") / 1e6
        m["heap.scavenge_ms"] = hdr("reinc.heap_scavenge_ns") / 1e6
        m["mtm.replay_ms"] = hdr("reinc.txn_replay_ns") / 1e6
    m["runtime.recover_ms"] = statistics.median(setup["runtime_ms"])
    m["bench.preload_s"] = statistics.median(setup["preload_s"])
    m["client.busy_pct"] = 100.0 * traced["client_cpu_s"] / traced["window_s"]
    base = untraced["window"]["ops_per_s"]
    m["trace.overhead_pct"] = 100.0 * (base - win["ops_per_s"]) / base
    m.update(probes)

    # Attribution: per-write count x probe unit cost, per layer.
    flush_ns = max(0.0, probes["scm.flush_fence_ns"] - probes["scm.fence_ns"])
    m["attr.scm_us"] = (m["scm.fences_per_write"] * probes["scm.fence_ns"] +
                        m["scm.flushes_per_write"] * flush_ns +
                        per(scm["bytes_streamed"], writes) * 1e3 /
                        SCM_CONFIG["write_bandwidth_bytes_per_us"]) / 1e3
    a8, a64 = probes["log.append_ns_8w"], probes["log.append_ns_64w"]
    appends = d("rawl.appends")
    words_per_append = per(d("rawl.append_words"), appends)
    append_ns = a8 + (a64 - a8) * (words_per_append - 8) / 56.0
    m["attr.log_us"] = per(appends, writes) * max(0.0, append_ns) / 1e3
    m["attr.heap_us"] = ((m["heap.pmallocs_per_write"] +
                          m["heap.pfrees_per_write"]) / 2 *
                         probes["heap.pmalloc_pfree_ns"] / 1e3)
    m["attr.unattributed_us"] = win["write_p50_us"] - (
        m["attr.scm_us"] + m["attr.log_us"] + m["attr.heap_us"])
    return m


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------

def print_end_to_end(name, r, e2e):
    win = r["window"]
    print("%s: %d reads, %d writes in %.2f s; %d set-ups"
          % (name, win["reads"], win["writes"], r["window_s"],
             len(r["setup"]["setup_s"])))
    for metric, unit in END_TO_END:
        whole = win.get("whole_" + metric)
        print("  %-14s %14.4f %-4s%s" % (
            metric, e2e[metric], unit,
            "" if whole is None else "  (whole window %.4f)" % whole))
    attempted = max(1, int(r["attempted"]))
    print("  %-14s %14.6f (%d failed of %d attempted)"
          % ("error_ratio", int(r["failed"]) / attempted, int(r["failed"]),
             attempted))


def print_layers(name, m, write_p50):
    print("%s per-layer (traced window):" % name)
    for metric, unit in PER_LAYER + TABLE_ONLY:
        print("  %-34s %14.4f %s" % (metric, m[metric], unit))
    total = m["attr.scm_us"] + m["attr.log_us"] + m["attr.heap_us"]
    print("  attribution: write_p50_us %.3f = scm %.3f + log %.3f + heap "
          "%.3f + unattributed %.3f (layers sum to %.0f%%)"
          % (write_p50, m["attr.scm_us"], m["attr.log_us"], m["attr.heap_us"],
             m["attr.unattributed_us"],
             100.0 * total / write_p50 if write_p50 else 0.0))


def result_line(correct, attempted, failed, values, spec):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in spec},
    })


def run_untraced(name, seed, seconds):
    r = run_workload(name, seed, seconds, WORKLOADS[name]["setups"])
    e2e = end_to_end(r)
    print_end_to_end(name, r, e2e)
    return r, e2e


def run_traced(name, seed, seconds, stamp_info):
    """Half the time untraced, half traced, plus the layer probes."""
    half = max(1.0, seconds / 2.0)
    os.makedirs(RUNS, exist_ok=True)
    probe_dir = os.path.join(RUNS, "probes-p%d" % os.getpid())
    try:
        probes = mnbench(["probes", "--dir", probe_dir])
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    untraced = run_workload(name, seed, half, 1)
    trace_file = os.path.join(BUILD, "trace-%s-s%d.json" % (name, seed))
    traced = run_workload(name, seed, half, 1, trace_file)
    with open(trace_file) as fh:
        spans = len(json.load(fh)["traceEvents"]) - 1
    m = layer_metrics(traced, untraced, probes)
    print("%s: Chrome trace with %d spans -> %s"
          % (name, spans, os.path.relpath(trace_file, ROOT)))
    print_layers(name, m, traced["window"]["write_p50_us"])
    summary = os.path.join(BUILD, "layers-%s-s%d.json" % (name, seed))
    with open(summary, "w") as fh:
        json.dump({"workload": name, "seed": seed, "stamp": stamp_info,
                   "metrics": m}, fh, indent=1, sort_keys=True)
    attempted = int(untraced["attempted"]) + int(traced["attempted"])
    failed = int(untraced["failed"]) + int(traced["failed"])
    return m, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced, then traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        build()
        signal.signal(signal.SIGALRM, on_timeout)
        signal.alarm(RUN_LIMIT_S * (3 if args.all else 1))
        info = stamp()
        print("mnbench: stamp %s" % json.dumps(info, sort_keys=True))
        if args.all:
            return run_all(args.seed, args.seconds, info)
        if args.trace:
            m, attempted, failed = run_traced(args.workload, args.seed,
                                              args.seconds, info)
            print(result_line(failed == 0, attempted, failed, m, PER_LAYER))
        else:
            r, e2e = run_untraced(args.workload, args.seed, args.seconds)
            failed = int(r["failed"])
            print(result_line(failed == 0, r["attempted"], failed, e2e,
                              END_TO_END))
        return 0 if failed == 0 else 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("mnbench: %s" % e)
        return 2
    finally:
        kill_children()


def run_all(seed, seconds, info):
    summary, ok = {}, True
    for name in WORKLOADS:
        r, e2e = run_untraced(name, seed, seconds)
        _, attempted, failed = run_traced(name, seed, seconds, info)
        ok = ok and int(r["failed"]) == 0 and failed == 0
        summary[name] = e2e
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
