#!/usr/bin/env python3
"""Proves that the benchmark's reference checks can fail.

Usage (from the repository root):

    python3 perfbench/selftest.py [--workloads search,incident,...]

For each workload it runs one short clean run and one run with
--wrong-reference, which makes exactly one reference answer wrong. The
second run must still exit 0 with a JSON result and report one more
failed operation than the clean run (or, if the two runs attempted a
different number of whole rounds, a higher failed share). Exits 1 if
any workload does not.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload, extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "0"] + extra,
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="ingest,search,incident")
    args = ap.parse_args()
    ok = True
    for w in args.workloads.split(","):
        clean = run(w, [])
        wrong = run(w, ["--wrong-reference"])
        # Runs attempt whole rounds; compare failures per attempt so a
        # different round count cannot hide or fake the extra failure.
        rounds_equal = clean["attempted"] == wrong["attempted"]
        caught = (wrong["failed"] == clean["failed"] + 1 if rounds_equal
                  else wrong["failed"] / wrong["attempted"] >
                  clean["failed"] / clean["attempted"])
        print(f"{w}: clean {clean['failed']}/{clean['attempted']} failed, "
              f"wrong reference {wrong['failed']}/{wrong['attempted']} "
              f"failed -> {'caught' if caught else 'NOT CAUGHT'}")
        ok = ok and caught
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
