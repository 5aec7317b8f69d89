#!/usr/bin/env python3
"""Builds and runs the Coconut Palm benchmark.

    python3 perfbench/run.py --workload static-explore --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the Palm library from ../src. It is configured and built
into .bench_build/perfbench at the repository root on first use; later
runs rebuild incrementally. Scratch data of a run lives in
.bench_build/run-<pid> and is removed when the run ends.

The metric names printed in the final JSON line are the ones BENCHMARK.json
declares: its end_to_end list untraced (--trace 0), its per_layer list
traced (--trace 1). Build output goes to stderr, so the last line of
stdout is always the result, or nothing when the run failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build(target):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", BUILD_DIR, "--target", target,
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)

    manifest = load_manifest()
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workload not in workloads:
        fail("--workload must be one of " + ", ".join(workloads))
    seconds = args.seconds or manifest["run_seconds"]
    metrics = manifest["per_layer" if args.trace else "end_to_end"]

    binary = build("palmbench")
    work_dir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--emit", ",".join(m["name"] for m in metrics),
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 1
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
