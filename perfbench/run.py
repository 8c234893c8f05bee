#!/usr/bin/env python3
"""Repository benchmark: builds madmax_perfbench from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pareto_exhaustive|pareto_guided|serve_open \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/perfbench (configured once, then
incremental). Earlier stdout lines are a human-readable report: the
machine fingerprint, the seed, and every metric with its unit and
sample count. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; metrics holds the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).

A traced run also writes its spans to .bench_build/traces/ and prints
each layer's self time next to the end-to-end numbers of the last
untraced run of the same workload; the gap between the two is the
tracing overhead. See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "madmax_perfbench")

WORKLOADS = ("pareto_exhaustive", "pareto_guided", "serve_open")

# (name, unit) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("model_err_pct", "%"),
    ("searches_per_s", "1/s"),
    ("search_ms.p50", "ms"),
    ("search_ms.p99", "ms"),
    ("best_gap_pct", "%"),
    ("lat_ms.lo.p50", "ms"),
    ("lat_ms.hi.p50", "ms"),
    ("cold_ms.hi.p50", "ms"),
    ("slo_frac.hi", "ratio"),
]

# (name, unit) of every per-layer metric, as in BENCHMARK.json.
PER_LAYER = [
    ("config.parse_us.p50", "us"),
    ("config.cache_hit_frac", "ratio"),
    ("config.cache_evictions", "count"),
    ("core.context_us.p50", "us"),
    ("core.verdict_us.p50", "us"),
    ("core.eval_us.p50", "us"),
    ("core.eval_us.p99", "us"),
    ("core.delta_us.p50", "us"),
    ("core.render_us.p50", "us"),
    ("engine.evals", "count"),
    ("engine.pruned", "count"),
    ("engine.hits", "count"),
    ("engine.delta_frac", "ratio"),
    ("engine.batch_ms.p50", "ms"),
    ("engine.self_frac", "ratio"),
    ("engine.cpu_per_wall", "ratio"),
    ("dse.self_ms.p50", "ms"),
    ("dse.evals_per_search", "count"),
    ("dse.frontier_frac", "ratio"),
    ("serve.handle_us.p50", "us"),
    ("serve.handle_us.p99", "us"),
    ("serve.wire_us.p50", "us"),
    ("serve.window_occupancy", "count"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.memo_fast_frac", "ratio"),
    ("serve.shed", "count"),
    ("serve.gen_lag_ms.p99", "ms"),
]

# Measured and printed, but not in BENCHMARK.json: on a shared 4-core
# virtual machine their run-to-run spread is far above any allowed
# bound (see README.md, "End-to-end metrics").
INFORMATIONAL = [
    ("lat_ms.lo.p99", "ms"),
    ("lat_ms.hi.p99", "ms"),
]

RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the benchmark binary; output to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the madmax sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "madmax_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_binary(args, extra=()):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += list(extra)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("madmax_perfbench exited with %d" % done.returncode)
    return json.loads(lines[-1])


def report(result, wanted, saved):
    """Human-readable lines: fingerprint, seed, metrics with samples."""
    fp = result["fingerprint"]
    print("perfbench %s seed=%d trace=%d cpu=%r nproc=%d" % (
        result["workload"], result["seed"], int(result["trace"]),
        fp["cpu_model"], fp["nproc"]))
    print("operations: attempted=%d failed=%d%s" % (
        result["attempted"], result["failed"],
        "" if not result["first_failures"]
        else " first failures: " + "; ".join(result["first_failures"])))
    metrics = result["metrics"]
    for name, unit in wanted + ([] if result["trace"] else INFORMATIONAL):
        m = metrics[name]
        print("  %-24s %14.6g %-6s n=%d" % (name, m["value"], unit,
                                             m["samples"]))
    if result["trace"]:
        print("layer self time (traced run; %d spans):" % result["spans"])
        total = sum(result["layer_self_ms"].values()) or 1.0
        for layer, ms in sorted(result["layer_self_ms"].items(),
                                key=lambda kv: -kv[1]):
            print("  %-8s %12.2f ms %6.1f%%" % (layer, ms, 100 * ms / total))
        print("end-to-end, untraced (last saved run) vs traced:")
        for name, unit in END_TO_END:
            traced = metrics[name]["value"]
            base = saved.get(name)
            if base is None:
                print("  %-24s %14s %14.6g %s" % (name, "-", traced, unit))
            else:
                gap = (traced - base) / base * 100 if base else 0.0
                print("  %-24s %14.6g %14.6g %-6s %+7.1f%%" % (
                    name, base, traced, unit, gap))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("corrupt", "dominated"),
                        help="self-test fault injection")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    extra = []
    if args.inject:
        extra += ["--inject", args.inject]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        extra += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    result = run_binary(args, extra)

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [n for n, _ in wanted if n not in result["metrics"]]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    last = os.path.join(BUILD_ROOT, "last", args.workload + ".json")
    saved = {}
    if args.trace and os.path.isfile(last):
        with open(last) as f:
            saved = json.load(f)
    report(result, wanted, saved)
    if not args.trace and not args.inject:
        os.makedirs(os.path.dirname(last), exist_ok=True)
        with open(last, "w") as f:
            json.dump({n: result["metrics"][n]["value"]
                       for n, _ in END_TO_END}, f)

    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": result["metrics"][n]["value"], "unit": u}
                    for n, u in wanted},
    }
    print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
