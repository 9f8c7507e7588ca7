#!/usr/bin/env python3
"""End-to-end benchmark of `trident eval` and the model sweep.

    python3 perfbench/run.py --workload eval_hot --seed 1 --seconds 15 --trace 0

Builds the benchmark program (perfbench/ plus the trident library from
src/) with CMake into $CARGO_TARGET_DIR (default .bench_build), runs one
workload, validates the eval artifacts it kept with
`tools/check_manifest.py eval`, and prints the result object
{correct, attempted, failed, metrics} as the last line of stdout.
Workloads: eval_cold, eval_hot, eval_warm, model_sweep (see NOTES.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("eval_cold", "eval_hot", "eval_warm", "model_sweep")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from a full checkout")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    # Build output goes to stderr so the result stays the last stdout line.
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_eval")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    work = os.path.join(ROOT, ".bench_run", "work")
    proc = subprocess.run(
        [binary, "--root", ROOT, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench_eval exited with {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    # The kept job's report and store must pass the eval manifest check;
    # every other job's report is byte-identical to it, so a failure here
    # fails every job.
    keep = os.path.join(work, "keep")
    if args.workload != "model_sweep":
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "check_manifest.py"),
             "eval", os.path.join(keep, "report.json"),
             os.path.join(keep, "store")],
            stdout=sys.stderr, stderr=sys.stderr)
        if check.returncode != 0:
            result["correct"] = False
            result["failed"] = result["attempted"]
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
