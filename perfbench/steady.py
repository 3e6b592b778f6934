#!/usr/bin/env python3
"""Repeats benchmark workloads and reports how steady each metric is.

Usage (from the repository root):

    python3 perfbench/steady.py [--workloads ingest,search,...]
        [--runs 10] [--first-seed 1] [--seconds 10] [--trace]

Run i uses seed first-seed + i and alternates the order of the
workloads (forward on even runs, reversed on odd ones), so slow drift of
the host does not always land on the same workload. For every workload
and metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
min/max, next to the metric's bound from BENCHMARK.json: a spread below
a third of the bound is steady. It also checks that the share of failed
operations is identical in every run of a workload.

With --trace each seed also runs traced; the tracing overhead is the
traced end-to-end median minus the untraced one (a traced run prints
its end-to-end metrics on stderr).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
TRACED_PREFIX = "perfbench: traced end-to-end "


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    traced_e2e = None
    for line in proc.stderr.splitlines():
        if line.startswith(TRACED_PREFIX):
            traced_e2e = json.loads(line[len(TRACED_PREFIX):])
    return result, traced_e2e


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    center = statistics.median(values)
    return q1, q3, (q3 - q1) / center if center else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]

    values = {}   # (workload, metric) -> [value]
    traced = {}   # (workload, metric) -> [value]
    shares = {}   # workload -> set of failed/attempted
    correct = {}  # workload -> all runs correct
    for i in range(args.runs):
        seed = args.first_seed + i
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            result, _ = run_once(w, seed, seconds, False)
            shares.setdefault(w, set()).add(
                (result["failed"], result["attempted"],
                 result["failed"] / result["attempted"]))
            correct[w] = correct.get(w, True) and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault((w, name), []).append(m["value"])
            if args.trace:
                _, e2e = run_once(w, seed, seconds, True)
                for name, m in (e2e or {}).items():
                    traced.setdefault((w, name), []).append(m["value"])
            print(f"run {i} seed {seed} {w}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)

    print(f"\n{'workload':9} {'metric':17} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6} {'min':>12} {'max':>12}")
    for w in workloads:
        for (ww, name), vals in values.items():
            if ww != w:
                continue
            q1, q3, sp = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "steady" if sp < bound / 3 else (
                    "within" if sp <= bound else "WIDE")
            tvals = traced.get((w, name))
            overhead = (f"  traced-untraced "
                        f"{statistics.median(tvals) - statistics.median(vals):+.4g}"
                        if tvals else "")
            print(f"{w:9} {name:17} {statistics.median(vals):12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {sp:8.2%} "
                  f"{bound if bound else '-':>6} {min(vals):12.6g} "
                  f"{max(vals):12.6g} {flag}{overhead}")
        fs = shares.get(w, set())
        same = len({s[2] for s in fs}) == 1
        print(f"{w:9} failed share {'identical' if same else 'DIFFERS'}: "
              f"{sorted(fs)[:3]}{' ...' if len(fs) > 3 else ''}; "
              f"correct in every run: {correct.get(w)}")


if __name__ == "__main__":
    main()
