#!/usr/bin/env python3
"""Kill-mid-load recovery test for the KV service (ctest: server_recovery).

For each seed: start mn_kvd on a fresh dir, run kv_perf write-heavy with
--record-acks (every acknowledged PUT is logged to a file *after* the
ack arrives), SIGKILL the daemon mid-load, restart it (redo-log replay),
then run kv_perf --verify against the ack file.  The verifier asserts
the durability contract:

  - every acked write is present, whole (checksum), and at least as new
    as the acked sequence number;
  - every *unacked* write that happens to be visible is whole — a torn
    value would be a persistency-order violation.

Usage: kv_crash_recover.py <build_dir> [--seeds N] [--kill-after S]
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time


def die(msg):
    print("kv_crash_recover: FAIL: %s" % msg, file=sys.stderr)
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


def run_seed(kvd, perf, seed, kill_after, keep_dir=None):
    workdir = keep_dir or tempfile.mkdtemp(prefix="mn_kv_crash_%d_" % seed)
    port_file = os.path.join(workdir, "port")
    ack_file = os.path.join(workdir, "acks.txt")
    data_dir = os.path.join(workdir, "data")
    os.makedirs(data_dir, exist_ok=True)

    def start(extra=()):
        if os.path.exists(port_file):
            os.unlink(port_file)
        cmd = [kvd, "--dir", data_dir, "--port", "0",
               "--port-file", port_file, "--workers", "4",
               "--heap-mb", "128"] + list(extra)
        return subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)

    ok = False
    try:
        kvd_proc = start()
        port = wait_port_file(port_file, kvd_proc)

        # Write-heavy load, long enough to outlive the kill point.  The
        # load generator records each ack after the response arrives;
        # --expect-reset keeps its exit code clean when we yank the
        # server out from under it.
        perf_proc = subprocess.Popen(
            [perf, "--port", str(port), "--connections", "16",
             "--pipeline", "8", "--threads", "4",
             "--seconds", str(kill_after + 30),
             "--keys", "4000", "--value-size", "100",
             "--read-ratio", "0.0", "--seed", str(seed),
             "--no-preload", "--record-acks", ack_file,
             "--expect-reset"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)

        time.sleep(kill_after)
        if kvd_proc.poll() is not None:
            die("seed %d: mn_kvd died before the kill" % seed)
        kvd_proc.kill()          # SIGKILL: no destructors, no flush
        kvd_proc.wait()

        out, _ = perf_proc.communicate(timeout=120)
        if perf_proc.returncode != 0:
            die("seed %d: kv_perf load rc=%d\n%s"
                % (seed, perf_proc.returncode, out))
        acked = sum(1 for ln in open(ack_file) if not ln.startswith("#"))
        if acked == 0:
            die("seed %d: no acked writes before the kill" % seed)
        print("kv_crash_recover: seed %d: killed mid-load, %d acked writes"
              % (seed, acked))

        # Restart: redo-log replay reconstructs the durable state.
        kvd_proc = start(["--seconds", "60"])
        port = wait_port_file(port_file, kvd_proc)

        rc = subprocess.run(
            [perf, "--port", str(port), "--keys", "4000",
             "--value-size", "100", "--connections", "16",
             "--seed", str(seed), "--verify", ack_file],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(rc.stdout, end="")
        if rc.returncode != 0:
            die("seed %d: verification failed (rc=%d)"
                % (seed, rc.returncode))

        kvd_proc.send_signal(signal.SIGTERM)
        kvd_proc.wait(timeout=60)
        ok = True
    finally:
        if ok:
            # Drop the (large, sparse) region backing files; keep the
            # ack log and port file, which is what CI archives.
            shutil.rmtree(data_dir, ignore_errors=True)
            if keep_dir is None:
                shutil.rmtree(workdir, ignore_errors=True)
        else:
            print("kv_crash_recover: artifacts kept in %s" % workdir,
                  file=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("build_dir")
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--kill-after", type=float, default=2.0)
    ap.add_argument("--keep-dir", default=None,
                    help="keep artifacts in this directory (CI uploads)")
    args = ap.parse_args()

    kvd = os.path.join(args.build_dir, "tools", "mn_kvd")
    perf = os.path.join(args.build_dir, "tools", "kv_perf")
    for exe in (kvd, perf):
        if not os.access(exe, os.X_OK):
            die("missing executable %s" % exe)

    for seed in range(1, args.seeds + 1):
        keep = None
        if args.keep_dir:
            keep = os.path.join(args.keep_dir, "seed%d" % seed)
            os.makedirs(keep, exist_ok=True)
        run_seed(kvd, perf, seed, args.kill_after, keep_dir=keep)

    print("kv_crash_recover: PASS (%d seeds)" % args.seeds)


if __name__ == "__main__":
    main()
