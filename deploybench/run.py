#!/usr/bin/env python3
"""Builds and runs the deploy-path benchmark (bench_deploy_e2e).

    python3 deploybench/run.py --workload vit_b1 --seed 1 --seconds 10 --trace 0
    python3 deploybench/run.py --smoke

The first form configures and builds the t2c library plus the bench into
.bench_build at the repo root (once; later runs only re-check it), then runs
one measurement. Its stdout ends with the bench's result line:
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.

--smoke runs every workload of BENCHMARK.json briefly, untraced and traced,
and checks that each prints exactly the metrics BENCHMARK.json names, with
their units, and that no operation failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "deploybench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bench_deploy_e2e")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources (src/) not found next to deploybench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], stdout=sys.stderr, check=True)


def bench(args, capture=False):
    cmd = [BINARY] + args + ["--work-dir", BUILD_DIR]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None, text=True)


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            run = bench(["--workload", workload, "--seed", "1", "--seconds", "0.3",
                         "--reps", "1", "--trace", trace], capture=True)
            where = f"{workload} --trace {trace}"
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append(f"{where}: exit {run.returncode}")
                continue
            result = json.loads(lines[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            print(f"smoke {where}: {len(units)} metrics, "
                  f"{result['failed']} of {result['attempted']} failed")
    for p in problems:
        print("smoke FAILED:", p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    if args.smoke:
        return smoke()
    return bench(["--workload", args.workload, "--seed", args.seed,
                  "--seconds", args.seconds, "--trace", args.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
