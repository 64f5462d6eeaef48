#!/usr/bin/env python3
"""Builds the PUP benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library
from ../src) into .bench_build/perfbench; later runs only rebuild what
changed. After the build the benchmark's self-test runs, then the workload.
Build output goes to stderr; stdout carries the workload's context lines and,
last, its one-line JSON result. Exits non-zero, without a result, when the
build or the self-test fails, and non-zero when a correctness check fails.
Spans of traced runs are written under .bench_build/perfbench-work.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs `cmd` with its output on stderr; True when it exits 0."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def configured_for_this_tree():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return os.path.realpath(line.split("=", 1)[1].strip()) == \
                    os.path.realpath(HERE)
    return False


def build():
    if not configured_for_this_tree():
        shutil.rmtree(BUILD, ignore_errors=True)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"] + generator,
                          BUILD_TIMEOUT_S):
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_logged(["cmake", "--build", BUILD, "-j", jobs,
                       "--target", "perfbench", "perfbench_test"],
                      BUILD_TIMEOUT_S):
        fail("build failed")
    if not run_logged([os.path.join(BUILD, "perfbench_test")], 60):
        fail("self-test failed")


def declared_metrics(workload, trace):
    """Metric names BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if workload not in [w["name"] for w in spec["workloads"]]:
        fail("workload %r is not listed in BENCHMARK.json" % workload)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    expected = declared_metrics(args.workload, args.trace == "1")
    build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--work-dir", WORK]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("workload printed no result (exit %d)" % proc.returncode)
    if list(result["metrics"]) != expected:
        missing = sorted(set(expected) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(expected))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
