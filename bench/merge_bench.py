#!/usr/bin/env python3
"""Merge google-benchmark JSON outputs into one BENCH_all.json.

The micro benches each emit their own file (BENCH_micro.json,
BENCH_micro_dv.json, BENCH_daemon.json, BENCH_dvlib.json). CI uploads a
merged artifact so successive PRs can diff ONE file for the whole perf
trajectory instead of chasing per-bench artifacts.

Usage:
    merge_bench.py -o BENCH_all.json IN1.json [IN2.json ...]

Missing or unreadable inputs are skipped with a warning (exit stays 0):
a partially-failed bench step must still produce the artifact for the
benches that did run. Each merged benchmark entry gains a "source" field
naming the file it came from.
"""

import argparse
import json
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", required=True,
                        help="merged output path (BENCH_all.json)")
    parser.add_argument("inputs", nargs="+",
                        help="google-benchmark JSON files to merge")
    args = parser.parse_args()

    merged = {"context": None, "sources": [], "benchmarks": []}
    for name in args.inputs:
        path = Path(name)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"merge_bench: skipping {name}: {err}", file=sys.stderr)
            continue
        ctx = data.get("context")
        if merged["context"] is None:
            merged["context"] = ctx
        elif isinstance(ctx, dict) and isinstance(merged["context"], dict):
            # The machine fact (hw_cores) must survive the merge even
            # when the first input predates it.
            if "hw_cores" in ctx:
                merged["context"].setdefault("hw_cores", ctx["hw_cores"])
        merged["sources"].append(path.name)
        for bench in data.get("benchmarks", []):
            entry = dict(bench)
            entry["source"] = path.name
            merged["benchmarks"].append(entry)

    Path(args.output).write_text(json.dumps(merged, indent=1) + "\n")
    print(f"merge_bench: wrote {args.output} "
          f"({len(merged['benchmarks'])} benchmarks from "
          f"{len(merged['sources'])} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
