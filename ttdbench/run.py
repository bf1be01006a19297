#!/usr/bin/env python3
"""Builds simfs_bench from this checkout's sources and runs one workload.

    python3 ttdbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--out run.json]

Run it from anywhere; paths are resolved against the checkout that holds
this file. The build goes to $CARGO_TARGET_DIR/ttdbench (default
.bench_build/ttdbench) and is incremental. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. --trace 1
makes a traced run (per-layer metrics) and writes its spans to
.bench_run/spans-<workload>.jsonl.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "ttdbench")
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "simfs_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
        cmd += ["--trace", os.path.join(".bench_run", "spans-%s.jsonl" % args.workload)]
    if args.out:
        cmd += ["--out", os.path.abspath(args.out)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
