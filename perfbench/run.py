#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout. The first run configures and
builds the library and the benchmark into .bench_build/; later runs
rebuild only what changed. Every run first checks the metric names of
BENCHMARK.json and executes the benchmark's self-test, then runs the
benchmark and prints its report. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. The exit code is
nonzero when the build, the self-test or any correctness check fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("run.py: the benchmark needs the repository sources next to "
              f"{HERE.name}/ (no CMakeLists.txt or src/ in {ROOT})",
              file=sys.stderr)
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "serving_bench",
                  "perfbench_selftest", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def declared_metrics():
    """BENCHMARK.json's metrics, {"end_to_end": {name: unit}, "per_layer":
    {name: unit}}, after checking that every name matches NAME and is
    used once. BENCHMARK.json is the only list of the metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    names = [m["name"] for kind in declared for m in spec[kind]]
    for name in names:
        if not NAME.match(name):
            fail(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
    if len(set(names)) != len(names):
        fail("a metric name is declared twice in BENCHMARK.json")
    return declared


def check_result(result, want):
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("the benchmark's result line has the wrong keys")
    got = result["metrics"]
    for name, entry in got.items():
        if name not in want or entry.get("unit") != want[name]:
            fail(f"metric {name} ({entry.get('unit')}) is not declared in "
                 "BENCHMARK.json")
    missing = sorted(set(want) - set(got))
    if missing:
        fail("metrics missing from the result: " + ", ".join(missing))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    declared = declared_metrics()
    build()
    selftest = subprocess.run([str(BUILD / "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    if selftest.returncode:
        fail("benchmark self-test failed")

    bench = subprocess.run(
        [str(BUILD / "serving_bench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(OUT)],
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = bench.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(bench.stdout)
        fail(f"no result line (exit code {bench.returncode})")
    check_result(result,
                 declared["per_layer" if args.trace else "end_to_end"])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
