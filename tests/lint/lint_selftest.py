#!/usr/bin/env python3
"""Self-test for tools/mithril_lint.py.

Feeds each known-bad fixture through the linter and asserts the right
rule fires at the right file:line; then asserts the clean fixture
produces zero findings (no false positives). Exercised via
`ctest -R lint_selftest`.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(ROOT, "tools", "mithril_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")


def run_lint(*names):
    paths = [os.path.join(FIXTURES, n) for n in names]
    proc = subprocess.run(
        [sys.executable, LINT, "--root", ROOT, *paths],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout


failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}")
    else:
        print(f"ok:   {what}")


def expect_finding(output, fixture, line, rule):
    pattern = rf"tests/lint/fixtures/{re.escape(fixture)}:{line}: " \
              rf"\[{re.escape(rule)}\]"
    expect(re.search(pattern, output) is not None,
           f"{fixture}:{line} fires [{rule}]")


# ---- each known-bad fixture fires its rule at the exact line ----------

rc, out = run_lint("bad_cycle_math.cc")
expect(rc == 1, "bad_cycle_math.cc exits 1")
expect_finding(out, "bad_cycle_math.cc", 8, "cycle-to-time")
expect_finding(out, "bad_cycle_math.cc", 14, "cycle-to-time")

# dropped-status needs the declaring header in the same scan set.
rc, out = run_lint("bad_api.h", "bad_dropped_status.cc")
expect(rc == 1, "bad_dropped_status.cc exits 1")
expect_finding(out, "bad_dropped_status.cc", 9, "dropped-status")
expect("bad_dropped_status.cc:10" not in out,
       "consumed Status on line 10 is not flagged")

rc, out = run_lint("bad_statset.cc")
expect(rc == 1, "bad_statset.cc exits 1")
expect_finding(out, "bad_statset.cc", 9, "direct-statset")

rc, out = run_lint("bad_rand.cc")
expect(rc == 1, "bad_rand.cc exits 1")
expect_finding(out, "bad_rand.cc", 8, "banned-rand-time")
expect_finding(out, "bad_rand.cc", 9, "banned-rand-time")

rc, out = run_lint("bad_new.cc")
expect(rc == 1, "bad_new.cc exits 1")
expect_finding(out, "bad_new.cc", 5, "raw-new-delete")
expect_finding(out, "bad_new.cc", 6, "raw-new-delete")

rc, out = run_lint("bad_cast.cc")
expect(rc == 1, "bad_cast.cc exits 1")
expect_finding(out, "bad_cast.cc", 7, "cast-outside-bits")

rc, out = run_lint("bad_fault_hook.cc")
expect(rc == 1, "bad_fault_hook.cc exits 1")
expect_finding(out, "bad_fault_hook.cc", 5, "fault-gating")
expect_finding(out, "bad_fault_hook.cc", 6, "fault-gating")
expect_finding(out, "bad_fault_hook.cc", 11, "fault-gating")
expect_finding(out, "bad_fault_hook.cc", 12, "fault-gating")

rc, out = run_lint("bad_thread.cc")
expect(rc == 1, "bad_thread.cc exits 1")
expect_finding(out, "bad_thread.cc", 8, "raw-mutex")
expect_finding(out, "bad_thread.cc", 13, "thread-ownership")
expect_finding(out, "bad_thread.cc", 15, "thread-ownership")
expect_finding(out, "bad_thread.cc", 16, "raw-mutex")
expect_finding(out, "bad_thread.cc", 20, "raw-mutex")
expect("[thread-ownership]" not in
       "\n".join(l for l in out.splitlines()
                 if ":8:" in l or ":16:" in l or ":20:" in l),
       "locks are raw-mutex findings, not thread-ownership")
expect("bad_thread.cc:21" not in out,
       "std::this_thread is not flagged")

rc, out = run_lint("bad_raw_mutex.cc")
expect(rc == 1, "bad_raw_mutex.cc exits 1")
expect_finding(out, "bad_raw_mutex.cc", 5, "raw-mutex")
expect_finding(out, "bad_raw_mutex.cc", 6, "raw-mutex")
expect_finding(out, "bad_raw_mutex.cc", 11, "raw-mutex")
expect_finding(out, "bad_raw_mutex.cc", 18, "raw-mutex")
expect("bad_raw_mutex.cc:20" not in out,
       "waiting on an already-declared condvar is not flagged")

rc, out = run_lint("bad_lock_order.cc")
expect(rc == 1, "bad_lock_order.cc exits 1")
expect_finding(out, "bad_lock_order.cc", 16, "lock-order")
expect("bad_lock_order.cc:15" not in out,
       "the outer (first) acquisition is not flagged")
expect("bad_lock_order.cc:28" not in out,
       "sequential (non-nested) acquisition is not flagged")

rc, out = run_lint("bad_relaxed_atomic.cc")
expect(rc == 1, "bad_relaxed_atomic.cc exits 1")
expect_finding(out, "bad_relaxed_atomic.cc", 10, "atomics-discipline")
expect_finding(out, "bad_relaxed_atomic.cc", 16, "atomics-discipline")

rc, out = run_lint("audited_relaxed_atomic.cc")
expect(rc == 1, "audited_relaxed_atomic.cc exits 1")
expect_finding(out, "audited_relaxed_atomic.cc", 18,
               "atomics-discipline")
expect("audited_relaxed_atomic.cc:12" not in out,
       "justified relaxed use in an audited file is not flagged")

rc, out = run_lint("bad_generation.cc")
expect(rc == 1, "bad_generation.cc exits 1")
expect_finding(out, "bad_generation.cc", 18, "generation-bump")
expect_finding(out, "bad_generation.cc", 30, "generation-bump")
expect("bad_generation.cc:9" not in out,
       "the member declaration initializer is not flagged")
expect("bad_generation.cc:24" not in out,
       "Journal::format() may mint a generation")

rc, out = run_lint("bad_checkpoint.cc")
expect(rc == 1, "bad_checkpoint.cc exits 1")
expect_finding(out, "bad_checkpoint.cc", 20, "checkpoint-epoch")
expect_finding(out, "bad_checkpoint.cc", 33, "checkpoint-epoch")
expect("bad_checkpoint.cc:10" not in out,
       "the epoch member declaration initializer is not flagged")
expect("bad_checkpoint.cc:11" not in out,
       "the snapshot-head declaration initializer is not flagged")
expect("bad_checkpoint.cc:26" not in out,
       "Journal::checkpoint() may bump the epoch")
expect("bad_checkpoint.cc:27" not in out,
       "Journal::checkpoint() may publish the snapshot head")

rc, out = run_lint("bad_latency.cc")
expect(rc == 1, "bad_latency.cc exits 1")
expect_finding(out, "bad_latency.cc", 13, "adhoc-latency")
expect_finding(out, "bad_latency.cc", 14, "adhoc-latency")
expect_finding(out, "bad_latency.cc", 15, "adhoc-latency")
expect("bad_latency.cc:17" not in out,
       "StageLatency recordWallNs() is not flagged")
expect("bad_latency.cc:18" not in out,
       "StageLatency recordSim() is not flagged")
expect("bad_latency.cc:19" not in out,
       "StageTimer setSimDuration() is not flagged")

rc, out = run_lint("bad_typed.cc")
expect(rc == 1, "bad_typed.cc exits 1")
expect_finding(out, "bad_typed.cc", 10, "typed-extractor")
expect_finding(out, "bad_typed.cc", 11, "typed-extractor")
expect_finding(out, "bad_typed.cc", 15, "typed-extractor")
expect("bad_typed.cc:22" not in out,
       "typed::-qualified extraction is the sanctioned route")

rc, out = run_lint("bad_tempdir.cc")
expect(rc == 1, "bad_tempdir.cc exits 1")
expect_finding(out, "bad_tempdir.cc", 11, "scratch-path")
expect_finding(out, "bad_tempdir.cc", 17, "scratch-path")
expect("bad_tempdir.cc:21" not in out,
       "a comment naming TempDir() is not flagged")

rc, out = run_lint("bad_guard.h")
expect(rc == 1, "bad_guard.h exits 1")
expect_finding(out, "bad_guard.h", 2, "header-guard")

rc, out = run_lint("bad_include_order.cc")
expect(rc == 1, "bad_include_order.cc exits 1")
expect_finding(out, "bad_include_order.cc", 2, "include-order")

# ---- every finding carries a fix hint ---------------------------------

rc, out = run_lint("bad_statset.cc")
expect("hint:" in out, "findings include a fix hint")

# ---- the clean fixture produces zero findings -------------------------

rc, out = run_lint("clean_fixture.h", "clean_fixture.cc")
expect(rc == 0, "clean fixtures exit 0")
expect("finding" not in out, "clean fixtures produce no findings")

# ---- and the real tree is clean (the gate itself) ---------------------

proc = subprocess.run([sys.executable, LINT, "--root", ROOT],
                      capture_output=True, text=True)
expect(proc.returncode == 0,
       f"full tree is lint-clean\n{proc.stdout}")

if failures:
    print(f"\n{len(failures)} selftest failure(s)")
    sys.exit(1)
print("\nlint_selftest: all assertions passed")
