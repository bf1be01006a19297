#!/usr/bin/env python3
"""Compares two sets of simfs_bench runs, metric by metric.

    python3 ttdbench/compare_bench.py <dir A> <dir B> [BENCHMARK.json]

A and B hold run reports written with `--out` (one JSON file per run):
A is the parent, B the change. For every workload and every end-to-end
metric of BENCHMARK.json it prints both medians and quartiles, the
fraction of runs B wins against A and a verdict:

  regressed   B's median is worse than A's by more than the bound
  improved    B wins at least 9/10 of at least 10 pairs and the medians
              differ by more than A's interquartile range, or every B
              run beats every A run
  unresolved  a side's interquartile range exceeds the bound
  no-change   otherwise

Runs pair up by seed when both sides ran the same seeds, else in file
order. Exits 1 when any metric regressed. Standard library only.
"""
import glob
import json
import os
import statistics
import sys


def load_runs(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(runs_a, runs_b, name):
    by_seed_a = {r["seed"]: r for r in runs_a}
    by_seed_b = {r["seed"]: r for r in runs_b}
    if set(by_seed_a) == set(by_seed_b):
        keys = sorted(by_seed_a)
        matched = [(by_seed_a[k], by_seed_b[k]) for k in keys]
    else:
        matched = list(zip(runs_a, runs_b))
    return [(a["metrics"][name]["value"], b["metrics"][name]["value"])
            for a, b in matched
            if name in a["metrics"] and name in b["metrics"]]


def verdict(a, b, lower_better, bound, wins, n_pairs):
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    better = (lambda x, y: x < y) if lower_better else (lambda x, y: x > y)
    worse_share = ((med_b - med_a) if lower_better else (med_a - med_b)) / med_a
    spread_a = (qa[2] - qa[0]) / med_a
    spread_b = (qb[2] - qb[0]) / med_b if med_b else float("inf")
    all_better = all(better(x, y) for x in b for y in a)
    if max(spread_a, spread_b) > bound:
        return "improved" if all_better else "unresolved"
    if worse_share > bound:
        return "regressed"
    if all_better or (n_pairs >= 10 and wins >= 0.9 * n_pairs
                      and abs(med_b - med_a) > qa[2] - qa[0]):
        return "improved"
    return "no-change"


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    spec_path = argv[3] if len(argv) == 4 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    runs_a, runs_b = load_runs(argv[1]), load_runs(argv[2])
    regressed = False
    print("%-15s %-18s %12s %25s %12s %25s %6s  %s" % (
        "workload", "metric", "A median", "A quartiles", "B median",
        "B quartiles", "B wins", "verdict"))
    for workload in sorted(set(runs_a) & set(runs_b)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            matched = pairs(runs_a[workload], runs_b[workload], name)
            if not matched:
                continue
            a = [x for x, _ in matched]
            b = [y for _, y in matched]
            lower_better = metric["better"] == "lower"
            wins = sum(1 for x, y in matched
                       if (y < x if lower_better else y > x))
            v = verdict(a, b, lower_better, metric["bound"], wins, len(matched))
            regressed = regressed or v == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            print("%-15s %-18s %12.4g %12.4g-%-12.4g %12.4g %12.4g-%-12.4g %2d/%-3d  %s"
                  % (workload, name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                     wins, len(matched), v))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
