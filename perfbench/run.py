#!/usr/bin/env python3
"""The repository benchmark: builds the library and the perfbench executable
from this checkout, generates one workload's inputs from its seed, measures
it, checks its outputs, and prints one JSON result as the last line.

    python3 perfbench/run.py --workload rmat-decompose --seed 1 --seconds 12 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload twice
(untraced, then traced) and prints the per-layer metrics, the tracing
overhead, and the ratios between the two ways each layer is measured.
Every result is also appended, with its run environment, to
.bench_build/perfbench-results/results.jsonl (or --record FILE), which
compare.py reads. README.md describes the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_BASE = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_BASE, "perfbench")
WORK_DIR = os.path.join(BUILD_BASE, "perfbench-work")
RESULTS = os.path.join(BUILD_BASE, "perfbench-results", "results.jsonl")

WORKLOADS = ("grid-decompose", "rmat-decompose", "rmat-paged", "serve-mix")

# serve-mix offered query rates (queries/s), one equal-length step each.
SERVE_RATES = {"full": "2500,5000,10000", "tiny": "1000,2000,4000"}

# Metric names, units and bounds: BENCHMARK.json is the one list.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def run(cmd, timeout, env=None):
    """Runs cmd to completion (killed past timeout); returns stdout."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("%s: timed out after %d s" % (cmd[1] if len(cmd) > 1 else cmd[0], timeout))
    if proc.returncode != 0:
        raise BenchError("%s failed (exit %d):\n%s" % (" ".join(cmd[:3]), proc.returncode,
                                                      (proc.stderr or "")[-4000:]))
    return proc.stdout


def build():
    exe = os.path.join(BUILD_DIR, "perfbench")
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no library sources next to perfbench/ (CMakeLists.txt missing)")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run(cmd, timeout=300)
    run(["cmake", "--build", BUILD_DIR, "-j", str(nproc())], timeout=840)
    return exe


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise BenchError("no output")
    return json.loads(lines[-1])


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def measure(exe, workload, seed, seconds, traced, inputs, scale):
    threads = nproc()
    env = dict(os.environ)
    # serve-mix: two workers computing single-threaded, a dispatcher and
    # one generator thread make four; the decompose workloads use nproc.
    env["OMP_NUM_THREADS"] = "1" if workload == "serve-mix" else str(threads)
    if workload == "serve-mix":
        # A fixed glibc mmap threshold: blocks of 128 KiB and up are mapped
        # and unmapped on free. With the default sliding threshold, how much
        # freed result memory the server's arenas kept decided peak_rss_mb,
        # which then ranged 381-490 MB across seeds (README.md).
        env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    tag = "%s-%d-%s" % (workload, seed, "traced" if traced else "untraced")
    cmd = [exe, "measure", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0",
           "--snapshot", inputs["snapshot"], "--threads", str(threads),
           "--trace-out", os.path.join(WORK_DIR, "trace-%s.json" % tag)]
    if workload == "serve-mix":
        cmd += ["--work", WORK_DIR, "--rates", SERVE_RATES[scale]]
    return last_json(run(cmd, timeout=seconds + 150, env=env))


def med(values):
    return statistics.median(values) if values else 0.0


def whole_panels(p):
    """The calls of a pass; where the workload replays a seed panel
    (rmat-paged), only whole passes over it, so every run weighs each seed
    equally."""
    calls, panel = p["calls"], p["panel"]
    if panel and len(calls) >= panel:
        return calls[:len(calls) - len(calls) % panel]
    return calls


def end_to_end(u):
    """The end-to-end metrics of one untraced pass, plus query_p99_us, which
    is printed and recorded but has no bound (README.md explains why)."""
    if u["workload"] == "serve-mix":
        lg = u["loadgen"]
        return {
            "setup_s": med(u["setup_s"]),
            # decompose() on the served graph, timed in-process after the
            # server stops (the calls the run responses are checked against).
            "decompose_s": med(u["local_decompose_s"]),
            "peak_rss_mb": u["peak_rss_mb"],
            "query_p50_us": lg["query_p50_us"],
            "query_p99_us": lg["query_p99_us"],
            "run_cold_p50_ms": lg["run_cold_p50_ms"],
            "sustained_qps": lg["sustained_qps"],
        }
    # On the decompose workloads the one request is a decompose() call,
    # issued back to back by one caller, each for a key never computed
    # before: a cold run.
    decompose_s = med([c["s"] for c in whole_panels(u)])
    return {
        "setup_s": med(u["setup_s"]),
        "decompose_s": decompose_s,
        "peak_rss_mb": u["peak_rss_mb"],
        "query_p50_us": decompose_s * 1e6,
        # A tail is reported only with at least ten samples beyond it.
        "query_p99_us": None,
        "run_cold_p50_ms": decompose_s * 1e3,
        "sustained_qps": ratio(1.0, decompose_s),
    }


def outcome(u):
    """(attempted, failed, messages) of one pass."""
    attempted, failed, messages = u["attempted"], u["failed"], list(u["messages"])
    if u["workload"] == "serve-mix":
        lg = u["loadgen"]
        attempted += lg["attempted"]
        failed += lg["errors"] + lg["unanswered"]
        if lg["errors"] or lg["unanswered"]:
            messages.append("%d error responses, %d unanswered" % (lg["errors"], lg["unanswered"]))
        if lg["lag_p99_us"] > lg["max_lag_p99_us"]:
            failed += 1
            messages.append("load generator lagged: p99 %.0f us" % lg["lag_p99_us"])
    return attempted, failed, messages


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(u, t):
    """Per-layer metrics of the traced pass t, against the untraced pass u."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    if t["workload"] == "serve-mix":
        lg = t["loadgen"]
        m.update({
            "graph.load_s": med(t["load_s"]),
            "shifts.draw_s": t["shift_draw_mean_s"],
            "shifts.rank_s": t["shift_rank_mean_s"],
            "bfs.search_s": t["search_mean_s"],
            "bfs.rounds": t["rounds_mean"],
            "bfs.arcs_scanned": t["arcs_mean"],
            "bfs.arcs_per_s": ratio(t["arcs_mean"], t["search_mean_s"]),
            "decomposer.assemble_s": t["assemble_mean_s"],
            "session.results_computed": t["results_computed"],
            "session.compute_ratio": ratio(lg["distinct_run_keys"], t["results_computed"]),
            "server.queue_wait_p50_us": t["queue_wait_p50_us"],
            "server.queue_wait_p99_us": t["queue_wait_p99_us"],
            "server.service_query_p50_us": t["service_query_p50_us"],
            "server.service_query_p99_us": t["service_query_p99_us"],
            "server.response_write_p99_us": t["response_write_p99_us"],
            "loadgen.lag_p99_us": lg["lag_p99_us"],
            "trace.overhead_ratio": ratio(lg["query_p50_us"], u["loadgen"]["query_p50_us"]),
            "ratio.query_client_to_service_p50": ratio(lg["query_p50_us"], t["service_query_p50_us"]),
            "ratio.query_client_to_service_p99": ratio(lg["query_p99_us"], t["service_query_p99_us"]),
        })
        return m
    calls = whole_panels(t)
    hits = sum(c["hits"] for c in calls)
    misses = sum(c["misses"] for c in calls)
    untraced = {c["seed"]: c for c in u["calls"]}
    pairs = [(c, untraced[c["seed"]]) for c in calls if c["seed"] in untraced]

    def span_ratio(field):
        return med([ratio(c[field], r[field]) for c, r in pairs])

    m.update({
        "graph.load_s": med(t["setup_s"]),
        "shifts.draw_s": med([c["draw"] for c in calls]),
        "shifts.rank_s": med([c["rank"] for c in calls]),
        "bfs.search_s": med([c["search"] for c in calls]),
        "bfs.rounds": med([c["rounds"] for c in calls]),
        "bfs.pull_rounds": med([c["pull_rounds"] for c in calls]),
        "bfs.arcs_scanned": med([c["arcs"] for c in calls]),
        "bfs.arcs_per_s": med([ratio(c["arcs"], c["search"]) for c in calls]),
        "decomposer.assemble_s": med([c["assemble"] for c in calls]),
        "storage.cache_hits": ratio(hits, len(calls)),
        "storage.cache_misses": ratio(misses, len(calls)),
        "storage.cache_evictions": ratio(sum(c["evictions"] for c in calls), len(calls)),
        "storage.hit_ratio": ratio(hits, hits + misses),
        "storage.sweep_s": med(t["sweep_s"]),
        "trace.overhead_ratio": ratio(med([c["s"] for c in calls]),
                                      med([c["s"] for c in whole_panels(u)])),
        "ratio.shift_span_to_telemetry": span_ratio("shift"),
        "ratio.search_span_to_telemetry": span_ratio("search"),
        "ratio.assemble_span_to_telemetry": span_ratio("assemble"),
    })
    return m


def cross_pass_mismatches(u, t):
    """Seeds both passes computed whose owner/settle hashes differ."""
    if u["workload"] == "serve-mix":
        a, b = u["run_hashes"], t["run_hashes"]
    else:
        a = {str(c["seed"]): c["hash"] for c in u["calls"]}
        b = {str(c["seed"]): c["hash"] for c in t["calls"]}
    common = set(a) & set(b)
    return len(common), sorted(s for s in common if a[s] != b[s])


def describe(name, value, unit, note=""):
    print("  %-36s %16.6g %-6s %s" % (name, value, unit, note))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny: small graphs, for the smoke test")
    parser.add_argument("--record", default=RESULTS,
                        help="JSONL file every result is appended to")
    args = parser.parse_args()
    traced = args.trace == "1"

    try:
        exe = build()
        os.makedirs(WORK_DIR, exist_ok=True)
        inputs = last_json(run([exe, "gen", "--workload", args.workload, "--seed", str(args.seed),
                                "--scale", args.scale, "--dir", WORK_DIR], timeout=300))
        try:
            u = measure(exe, args.workload, args.seed, args.seconds, False, inputs, args.scale)
            t = measure(exe, args.workload, args.seed, args.seconds, True, inputs,
                        args.scale) if traced else None
        finally:
            for path in inputs["temp"]:
                if os.path.exists(path):
                    os.remove(path)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    attempted, failed, messages = outcome(u)
    if traced:
        a2, f2, m2 = outcome(t)
        attempted, failed, messages = attempted + a2, failed + f2, messages + m2
        compared, mismatched = cross_pass_mismatches(u, t)
        attempted += compared
        failed += len(mismatched)
        messages += ["seed %s: traced and untraced owner/settle differ" % s for s in mismatched]

    print("perfbench %s seed=%d seconds=%g trace=%s" % (args.workload, args.seed, args.seconds, args.trace))
    e2e = end_to_end(u)
    values, units = (per_layer(u, t), PER_LAYER) if traced else (e2e, END_TO_END)
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    for k, v in metrics.items():
        describe(k, v["value"], v["unit"])
    if not traced:
        p99 = e2e["query_p99_us"]
        if p99 is None:
            print("  %-36s %16s %-6s %s" % ("query_p99_us", "n/a", "us",
                                            "(fewer than 10 samples beyond p99)"))
        else:
            describe("query_p99_us", p99, "us", "(not gated: see README.md)")
        if "calls" in u:
            print("  (%d decompose() calls; setup repeated %d times)"
                  % (len(u["calls"]), len(u["setup_s"])))
        else:
            lg = u["loadgen"]
            print("  (%d queries at the top rate, %d cold runs; setup repeated %d times)"
                  % (lg["query_samples"], lg["cold_runs"], len(u["setup_s"])))
    describe("error_rate", ratio(failed, attempted), "ratio", "(%d failed / %d attempted)" % (failed, attempted))
    for msg in messages:
        print("  failure: %s" % msg)

    env = dict(u["env"])
    env.update({"nproc": nproc(), "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": int(traced), "scale": args.scale,
                "git_sha": git_sha(), "graph": inputs["graph"]})
    if args.workload == "serve-mix":
        env["offered_rates"] = SERVE_RATES[args.scale]
    print("env %s" % json.dumps(env, sort_keys=True))
    if args.workload == "serve-mix":
        for step in u["loadgen"]["steps"]:
            print("  step %(rate)g/s: p50 %(p50_us).0f us, p99 %(p99_us).0f us, "
                  "%(completed)d/%(sent)d answered, backlog %(backlog_end)d, pass=%(pass)s" % step)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(os.path.dirname(os.path.abspath(args.record)), exist_ok=True)
    with open(args.record, "a") as f:
        f.write(json.dumps({"time": time.time(), "env": env, "end_to_end": e2e,
                            "messages": messages, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
