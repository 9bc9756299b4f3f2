#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload explain_sweep --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the library
from the repository root with its own flags) into .bench_build/perfbench;
later calls rebuild incrementally. Build output goes to stderr. The benchmark
binary's standard output is passed through once its last line has been checked
against BENCHMARK.json, so that line is always the result object. Any
failure -- missing sources, a failed build, a failed output check, a result
that does not match BENCHMARK.json -- exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("explain_sweep", "fleet_drift", "fleet_sketched")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(targets):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("library sources not found (no %s at the repository root)"
                 % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] +
                 targets)
    for step in steps:
        # Build chatter must not reach stdout: its last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def check_result(line, trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(result))
    with open(spec_path) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        fail("metrics %s do not match BENCHMARK.json %s" % (got, want))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_test"])
        sys.exit(subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_test")]).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    build(["perfbench"])
    run = subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", args.trace, "--out-dir", OUT_DIR],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("the benchmark printed no result (exit code %d)" % run.returncode)
    result = check_result(lines[-1], args.trace == "1")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0 or not result["correct"]:
        sys.exit(run.returncode or 1)


if __name__ == "__main__":
    main()
