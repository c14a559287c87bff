#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload converged_mix --seed 1 --seconds 30 --trace 0

Builds the evolve library from src/ and the perfbench program into
.bench_build/perfbench (RelWithDebInfo, like the top-level build), runs
one workload, and passes its output through. The last line of stdout is
the JSON result; this script checks that it reports exactly the metrics
BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer
with --trace 1) and exits non-zero on any mismatch, a failed build, or a
failed correctness check. BENCHMARK.json is the only place that holds a
metric's better direction and bound; the program prints names and units.
See perfbench/README.md for the metrics.
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
EXE = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at " + os.path.join(ROOT, "src"))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]):
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m.get("better") not in ("lower", "higher"):
            fail("BENCHMARK.json: metric %s has no better direction" % m["name"])
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("run failed with exit code %d" % proc.returncode)

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == "1")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        sys.stdout.write(proc.stdout)
        fail("result does not match the metrics BENCHMARK.json lists")
    sys.stdout.write(proc.stdout)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
