#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny scale, untraced and
traced, for one second each.

    python3 perfbench/smoke_test.py

Checks that the last output line has exactly the result keys, that every
metric BENCHMARK.json names for the mode is printed by name with its unit,
that error_rate is 0, and that run.py fails without printing a result in a
directory holding only BENCHMARK.json and perfbench/. Exits 1 on any
failure.
"""
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_run(spec, workload, trace):
    problems = []
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--scale", "tiny", "--record",
                     os.path.join(ROOT, ".bench_build", "smoke-results.jsonl"))
    if proc.returncode != 0:
        return ["exit %d: %s" % (proc.returncode, proc.stderr[-2000:])]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("correct=%s failed=%s attempted=%s" % (
            result["correct"], result["failed"], result["attempted"]))
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append("metric names differ from BENCHMARK.json")
    text = "\n".join(lines[:-1])
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append("%s: %s" % (m["name"], got))
        if not any(l.split()[:1] == [m["name"]] and m["unit"] in l.split() for l in lines[:-1]):
            problems.append("%s not printed with its unit" % m["name"])
    if "error_rate" not in text or not any(
            l.split()[:2] == ["error_rate", "0"] for l in lines):
        problems.append("error_rate is not printed as 0")
    return problems


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: run.py must fail, printing nothing."""
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", "rmat-decompose", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: exit %d, stdout %r" % (proc.returncode, proc.stdout[-200:])]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            problems = check_run(spec, workload, trace)
            status = "ok" if not problems else "FAIL"
            print("%-16s trace=%s %s" % (workload, trace, status))
            for p in problems:
                print("    " + p)
            failures += bool(problems)
    problems = check_bare_directory()
    print("bare directory   %s" % ("ok" if not problems else "FAIL"))
    for p in problems:
        print("    " + p)
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
