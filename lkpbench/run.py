#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 lkpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and compiles
the library and the benchmark into .bench_build/ (CMake, Release); later
calls rebuild only what changed. Every call first runs the tests of the
benchmark's own arithmetic, then the workload. Build output goes to
stderr; the benchmark's report goes to stdout, and its last line is the
JSON result. The exit code is 0 only when the run is correct.

BENCHMARK.json is the only list of metrics: the benchmark binary reports
everything it measured, and this script keeps the end-to-end metrics
(--trace 0), which must be positive and finite, or the per-layer ones
(--trace 1), where a layer the workload bypasses reads 0.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("map_batch", "sample_async", "stream_update", "train_lkp")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    return 1


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False
        if done.returncode != 0:
            return False
    return True


def build_id(binary):
    """Hash of the built benchmark: response digests are compared only
    between runs of the same code."""
    digest = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def declared_metrics(trace):
    """The (name, unit) pairs BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def select_metrics(result, declared, gated):
    """Rewrites result["metrics"] to the declared names. A gated metric that
    is missing, zero or not finite fails the run; an ungated one reads 0."""
    measured = result["metrics"]
    selected = {}
    for name, unit in declared:
        value = measured.get(name, {}).get("value")
        ok = isinstance(value, (int, float)) and math.isfinite(value)
        if gated and not (ok and value > 0):
            print("CHECK FAILED: metric %s is missing, zero or not finite"
                  % name)
            result["correct"] = False
            result["failed"] += 1
        selected[name] = {"value": value if ok else 0, "unit": unit}
    result["metrics"] = selected


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("library sources not found next to lkpbench/")
    try:
        declared = declared_metrics(args.trace == 1)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return fail("cannot read the metric list in BENCHMARK.json: %s" % e)
    if not build():
        return fail("build failed")

    tests = subprocess.run([os.path.join(BUILD, "lkpbench_stats_test")],
                           stdout=sys.stderr, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S)
    if tests.returncode != 0:
        return fail("the benchmark's arithmetic tests failed")

    binary = os.path.join(BUILD, "lkpbench")
    state = os.path.join(BUILD, "state", build_id(binary))
    os.makedirs(state, exist_ok=True)
    command = [binary,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--state-dir", state]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("workload timed out")
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        select_metrics(result, declared, gated=args.trace == 0)
    except (ValueError, KeyError, TypeError, AttributeError):
        sys.stdout.write(lines[-1] + "\n")
        return fail("the benchmark printed no result line")
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
