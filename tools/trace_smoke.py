#!/usr/bin/env python3
"""Chrome trace export smoke test (ctest target: trace_smoke).

Runs the quickstart example with every transaction sampled and
MNEMOSYNE_TRACE_FILE set (which alone turns the flight recorder on),
then checks that the file parses as JSON and holds a thread_name
record and a transaction "X" event whose args carry commit_ts and the
fence count.

Usage: trace_smoke.py <build_dir>
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile


def die(msg):
    print("trace_smoke: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        die("usage: trace_smoke.py <build_dir>")
    quickstart = os.path.join(sys.argv[1], "examples", "quickstart")
    work = tempfile.mkdtemp(prefix="mn_trace_smoke_")
    try:
        trace = os.path.join(work, "trace.json")
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("MNEMOSYNE_")}
        env.update(MNEMOSYNE_FLIGHT_SAMPLE="1", MNEMOSYNE_TRACE_FILE=trace)
        run = subprocess.run([quickstart, os.path.join(work, "state")],
                             env=env, capture_output=True, text=True,
                             timeout=120)
        if run.returncode != 0:
            die("quickstart exited %d:\n%s" % (run.returncode, run.stderr))
        try:
            with open(trace) as f:
                events = json.load(f)["traceEvents"]
        except (OSError, ValueError, KeyError) as e:
            die("no parseable trace at %s: %s" % (trace, e))
        txns = [e for e in events if e.get("ph") == "X"
                and "commit_ts" in e.get("args", {})
                and "fences" in e.get("args", {})]
        if not txns:
            die("no transaction X event with commit_ts and fences")
        if not any(e.get("name") == "thread_name" for e in events):
            die("no thread_name metadata record")
        print("trace_smoke: %d events, %d transactions"
              % (len(events), len(txns)))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
