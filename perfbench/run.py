#!/usr/bin/env python3
"""Run one perfbench workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Builds perfbench/bench.exe with
dune's release profile into .bench_build, times the workload's set-up in
fresh processes, runs the workload once, and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ones
(--trace 1).  Exits non-zero when any output was wrong or the build or
the run failed.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["kernels", "serve-fresh", "serve-repeat"]
SETUP_SAMPLES = 5  # set-ups timed per run, the measured run's own included


def deadline_s(seconds):
    """Time allowed for everything after the build: 170 s at --seconds 30."""
    return 2 * seconds + 110


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def last_json_line(text):
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no result line")


def bench(args, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time")
    try:
        proc = subprocess.run(
            [EXE] + args, stdout=subprocess.PIPE, timeout=left, text=True
        )
    except subprocess.TimeoutExpired:
        fail("bench.exe %s ran out of time" % " ".join(args))
    if proc.returncode != 0:
        fail("bench.exe %s exited with %d" % (" ".join(args), proc.returncode))
    return last_json_line(proc.stdout)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib/harness")):
        fail("run from the root of a source checkout (no dune-project here)", 2)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./perfbench/bench.exe"],
            stdout=sys.stderr, env=env, timeout=850,
        )
    except subprocess.TimeoutExpired:
        fail("build ran out of time", 2)
    if build.returncode != 0:
        fail("build failed", 2)

    with open(os.path.join(HERE, "pinned.json")) as f:
        pinned = json.load(f)[a.workload]
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    deadline = time.monotonic() + deadline_s(a.seconds)

    # only the end-to-end result reports setup_s
    samples = SETUP_SAMPLES - 1 if a.trace == 0 else 0
    setups = [bench(common + ["--setup-only"], deadline)["setup_s"]
              for _ in range(samples)]
    out = bench(common + ["--seconds", str(a.seconds),
                          "--trace", str(a.trace)], deadline)
    setups.append(out["setup_s"])

    want = pinned.get(str(a.seed))
    if want is None:
        log("inputs digest %s (no pinned digest for seed %d)"
            % (out["digest"], a.seed))
    elif want == out["digest"]:
        log("inputs digest %s: same inputs as pinned" % out["digest"])
    else:
        log("inputs digest %s: DIFFERENT inputs from pinned %s"
            % (out["digest"], want))

    metrics = {}
    for name, value, unit in out["metrics"]:
        if name == "setup_s":
            value = statistics.median(setups)
        metrics[name] = {"value": value, "unit": unit}
    failed = out["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
