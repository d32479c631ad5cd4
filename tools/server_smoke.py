#!/usr/bin/env python3
"""Smoke test for the networked KV service (ctest target: server_smoke).

Launches mn_kvd on an ephemeral port, drives it with kv_perf at 64
pipelined connections for ~2 seconds, asserts the emitted report has
parseable percentiles and zero errors, stops the daemon with SIGTERM,
and verifies the clean-stop contract: the restart must print
"replayed 0 txns" (a clean stop leaves zero unreplayed log).

Usage: server_smoke.py <build_dir> [--connections N] [--seconds S]
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time


def die(msg):
    print("server_smoke: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def wait_port_file(path, proc, timeout=30.0):
    t0 = time.monotonic()
    while time.monotonic() - t0 < timeout:
        if proc.poll() is not None:
            die("mn_kvd exited early (rc=%d)" % proc.returncode)
        try:
            with open(path) as f:
                txt = f.read().strip()
            if txt:
                return int(txt)
        except FileNotFoundError:
            pass
        time.sleep(0.05)
    die("timed out waiting for port file")


def start_kvd(kvd, workdir, port_file, extra=()):
    if os.path.exists(port_file):
        os.unlink(port_file)
    cmd = [kvd, "--dir", workdir, "--port", "0", "--port-file", port_file,
           "--workers", "4", "--heap-mb", "128"]
    cmd += list(extra)
    return subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def stop_kvd(proc, timeout=60.0):
    proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        die("mn_kvd did not stop within %ds of SIGTERM" % timeout)
    if proc.returncode != 0:
        die("mn_kvd exited rc=%d\n%s" % (proc.returncode, out))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("build_dir")
    ap.add_argument("--connections", type=int, default=64)
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()

    kvd = os.path.join(args.build_dir, "tools", "mn_kvd")
    perf = os.path.join(args.build_dir, "tools", "kv_perf")
    for exe in (kvd, perf):
        if not os.access(exe, os.X_OK):
            die("missing executable %s" % exe)

    workdir = tempfile.mkdtemp(prefix="mn_server_smoke_")
    port_file = os.path.join(workdir, "port")
    report_path = os.path.join(workdir, "report.json")
    try:
        # -- phase 1: fresh start + load ------------------------------------
        proc = start_kvd(kvd, workdir, port_file)
        port = wait_port_file(port_file, proc)
        print("server_smoke: mn_kvd up on port %d" % port)

        rc = subprocess.run(
            [perf, "--port", str(port),
             "--connections", str(args.connections),
             "--pipeline", "8", "--threads", "4",
             "--seconds", str(args.seconds),
             "--keys", "4000", "--value-size", "100",
             "--read-ratio", "0.5", "--json", report_path,
             "--stat-delta"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(rc.stdout, end="")
        if rc.returncode != 0:
            die("kv_perf exited rc=%d" % rc.returncode)

        with open(report_path) as f:
            report = json.load(f)
        m = report["metrics"]
        if m["errors"] != 0:
            die("kv_perf reported %d errors" % m["errors"])
        if m["throughput_ops"] <= 0:
            die("no throughput measured")
        for p in ("write_p50_ns", "write_p99_ns", "write_p999_ns"):
            if not (0 < m[p] < 60_000_000_000):
                die("implausible percentile %s=%r" % (p, m[p]))
        if m["write_p50_ns"] > m["write_p999_ns"]:
            die("percentiles not monotone")
        print("server_smoke: %.0f ops/s, write p50=%.0fus p99=%.0fus "
              "p999=%.0fus, fences/txn=%s"
              % (m["throughput_ops"], m["write_p50_ns"] / 1e3,
                 m["write_p99_ns"] / 1e3, m["write_p999_ns"] / 1e3,
                 m.get("fences_per_txn")))

        # -- phase 2: clean stop --------------------------------------------
        out = stop_kvd(proc)
        if "clean shutdown" not in out:
            die("missing clean-shutdown line:\n%s" % out)

        # -- phase 3: restart-after-clean-stop ------------------------------
        proc = start_kvd(kvd, workdir, port_file, extra=["--seconds", "1"])
        wait_port_file(port_file, proc)
        out, _ = proc.communicate(timeout=60)
        if proc.returncode != 0:
            die("restart exited rc=%d\n%s" % (proc.returncode, out))
        if "recovered (replayed 0 txns)" not in out:
            die("clean stop left unreplayed log:\n%s" % out)
        print("server_smoke: clean stop left zero unreplayed log")
        print("server_smoke: PASS")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
