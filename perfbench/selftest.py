#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the root of a checkout:  python3 perfbench/selftest.py

1. A corrupted serve response must lower ok_frac (and make the run
   incorrect).
2. A dominated point injected into every frontier must do the same.
3. Every workload, untraced and traced, must emit exactly the metrics
   BENCHMARK.json names for that mode, each with the unit given there.

Runs are short (--seconds 1), so the numbers they print mean nothing;
only the checks do. Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace=0, inject=None, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd),
                                                  done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for workload, inject in (("serve_open", "corrupt"),
                             ("pareto_exhaustive", "dominated")):
        line = run(workload, inject=inject)
        ok_frac = line["metrics"]["ok_frac"]["value"]
        check(ok_frac < 1.0 and not line["correct"] and line["failed"] > 0,
              "%s --inject %s lowers ok_frac (%.6f, failed=%d)"
              % (workload, inject, ok_frac, line["failed"]))

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            line = run(w["name"], trace=trace)
            got = {n: m["unit"] for n, m in line["metrics"].items()}
            check(got == want,
                  "%s --trace %d emits every %s metric with its unit"
                  % (w["name"], trace, key))
            if trace == 0:
                check(line["correct"] and line["failed"] == 0,
                      "%s passes its output checks" % w["name"])

    if failures:
        print("%d self-test(s) failed" % len(failures))
        sys.exit(1)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
