#!/usr/bin/env python3
"""Compares two result sets of the benchmark, metric by metric and workload
by workload.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds run.py records (one JSON object per line; run.py appends
them to .bench_build/perfbench-results/results.jsonl or to --record FILE).
Records pair up in file order per workload and trace mode, so run the two
sides alternately: parent, change, parent, change, ...

For every metric the report gives each side's median and quartiles, the
pair win rate of the change, and a verdict:
  gain        >= 10 pairs, the change wins >= 9/10 of them (ties count for
              neither), and the medians differ by more than the parent's
              quartile spread
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  a side's quartile spread is wider than the bound, unless
              every run of the change beats every run of the parent
  same        none of the above
Per-layer metrics and the recorded query_p99_us have no bound: they get
the gain test and the medians only. The exit code is 1 when any end-to-end metric regressed.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                key = (rec["env"]["workload"], rec["env"]["trace"])
                groups.setdefault(key, []).append(rec)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when b is better than a."""
    return b < a if direction == "lower" else b > a


def verdict(a, b, spec):
    direction = spec["better"]
    bound = spec.get("bound")
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(x, y, direction))
    spread_a = (qa[2] - qa[0]) / abs(med_a) if med_a else 0.0
    spread_b = (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0
    all_better = all(better(x, y, direction) for x in a for y in b)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(med_b - med_a) > qa[2] - qa[0]):
        result = "gain"
    elif bound is not None and med_a and (
            (med_b - med_a) / abs(med_a) > bound if direction == "lower"
            else (med_a - med_b) / abs(med_a) > bound):
        result = "regression"
    elif bound is not None and (spread_a > bound or spread_b > bound) and not all_better:
        result = "unresolved"
    else:
        result = "same"
    return {"parent": qa, "change": qb, "pairs": len(pairs), "wins": wins,
            "spread_parent": spread_a, "spread_change": spread_b, "verdict": result}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    specs = {0: {m["name"]: m for m in bench["end_to_end"]},
             1: {m["name"]: m for m in bench["per_layer"]}}
    parent, change = load(args.parent), load(args.change)

    regressed = False
    print("%-16s %-34s %30s %30s %7s %s" % ("workload", "metric", "parent q1/med/q3",
                                          "change q1/med/q3", "wins", "verdict"))
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        metrics = dict(specs[trace])
        if trace == 0:
            # Recorded end-to-end values without a bound (query_p99_us).
            for name in parent[key][0]["end_to_end"]:
                metrics.setdefault(name, {"name": name, "better": "lower"})

        def values(records, name):
            out = []
            for r in records:
                v = r["metrics"][name]["value"] if name in r["metrics"] else r["end_to_end"].get(name)
                if v is not None:
                    out.append(v)
            return out

        for name, spec in metrics.items():
            a, b = values(parent[key], name), values(change[key], name)
            if not a or not b:
                continue
            v = verdict(a, b, spec)
            regressed |= trace == 0 and v["verdict"] == "regression"
            print("%-16s %-34s %30s %30s %7s %s" % (
                workload, name,
                "%.4g/%.4g/%.4g" % v["parent"], "%.4g/%.4g/%.4g" % v["change"],
                "%d/%d" % (v["wins"], v["pairs"]), v["verdict"]))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
