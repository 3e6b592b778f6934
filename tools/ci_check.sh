#!/usr/bin/env bash
# One-command CI gate: every layer of the static-analysis + test stack.
#
#   tools/ci_check.sh [--fast]
#
# Runs, in order (stopping at the first failure):
#   1. werror build      full tree, -Wall -Wextra -Werror
#   2. unit + bench tests ctest over the werror build
#  2b. fingerprints + -j the `fingerprint` label (the device-image
#      digests a fixed ingest and its recovery must reproduce, what
#      every query path returns over fixed stores, and the metrics a
#      fixed workload reports), then the TypedE2e tests five times
#      over at ctest -j4, the parallel schedule that once made them
#      delete each other's images, then every test outside the
#      smoke/nightly/lint labels three times over at -j in random
#      order, so a test that leans on a sibling's files or timing fails
#   3. fault matrix      tools/fault_matrix.sh — end-to-end queries
#      under corruption/timeout/mixed fault plans stay exactly correct
#   4. crash matrix      tools/crash_matrix.sh — power-cut at every
#      device program; recovery never loses acknowledged data and
#      never fabricates a match
#   5. mg crash matrix   tools/crash_matrix.sh --rounds=2 — resume the
#      recovered store under a fresh journal generation, cut again,
#      recover again; the contract holds at every (cut1, cut2) pair of
#      the bounded grid
#   6. ckpt crash matrix tools/crash_matrix.sh --checkpoint — the same
#      cut grid with the background checkpoint policy on, so cuts land
#      inside snapshot writes, epoch bumps, and migrations; the final
#      recovery must show bounded replay (snapshot + short chain tail)
#   7. tsan tier         the svc-labelled concurrency tests under
#      -fsanitize=thread (skipped where the toolchain lacks TSan)
#   8. soak SLO smoke    a short deterministic open-loop soak run whose
#      soak_slo record must repeat byte-identically and pass its
#      end-to-end p99 gate
#   9. typed-query smoke bench_typed_query — the incident scenario's
#      typed_query records must repeat byte-identically, carry the
#      schema keys, and show the typed tier reading fewer device bytes
#      than the full scan for byte-identical match sets
# 10. thread safety     tools/run_tsa.sh — Clang -Wthread-safety over
#      src/, plus its fixture selftest (skipped where clang++ is not
#      installed)
# 11. domain lint       tools/mithril_lint.py (and its self-test)
# 12. clang-tidy        tools/run_tidy.sh (skipped if not installed)
# 13. ubsan build+test  full tree under -fsanitize=undefined
#      (skipped with --fast)
#
# The final summary names every gate that was SKIPPED: a run on a
# gcc-only box skips tsan, thread safety and clang-tidy, and is not a
# full pass.
#
# This is the command ROADMAP's tier-1 verify can grow into: a tree
# that passes ci_check.sh passes every gate a future PR is held to.
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
FAST=0
[ "${1:-}" = "--fast" ] && FAST=1

JOBS="$(nproc 2> /dev/null || echo 4)"

step() { printf '\n=== ci_check: %s ===\n' "$*"; }

# Gates that could not run here; listed in the final summary.
SKIPPED=()
skipped() {
    echo "$1 unavailable: SKIPPED"
    SKIPPED+=("$2")
}

step "werror build (preset: werror)"
cmake --preset werror > /dev/null
cmake --build --preset werror -j "$JOBS"

step "unit + bench tests"
ctest --test-dir build-werror --output-on-failure -j "$JOBS"

step "fingerprints + parallel repeat (ctest -L fingerprint; TypedE2e -j4; random-order -j repeat x3)"
ctest --test-dir build-werror -L fingerprint --output-on-failure
ctest --test-dir build-werror -R TypedE2e -j 4 --repeat until-fail:5 \
    --output-on-failure
ctest --test-dir build-werror -LE 'smoke|nightly|lint' -j "$JOBS" \
    --schedule-random --repeat until-fail:3 --output-on-failure

step "fault matrix (tools/fault_matrix.sh)"
tools/fault_matrix.sh build-werror/examples/mithril_cli \
    build-werror/fault_matrix_ci

step "crash matrix (tools/crash_matrix.sh)"
tools/crash_matrix.sh build-werror/examples/mithril_cli \
    build-werror/crash_matrix_ci

step "multi-generation crash matrix (crash_matrix.sh --rounds=2)"
tools/crash_matrix.sh --rounds=2 build-werror/examples/mithril_cli \
    build-werror/crash_matrix_mg_ci

step "checkpointed crash matrix (crash_matrix.sh --checkpoint)"
tools/crash_matrix.sh --checkpoint build-werror/examples/mithril_cli \
    build-werror/crash_matrix_ckpt_ci

step "tsan tier (svc concurrency tests, preset: tsan)"
# Probe the toolchain the same way lint_tidy handles a missing
# clang-tidy: a graceful SKIP (exit 77 convention) where the sanitizer
# runtime is not shipped, a hard gate where it is.
if echo 'int main(){return 0;}' \
    | c++ -x c++ -fsanitize=thread -o /tmp/ci_tsan_probe.$$ - \
        > /dev/null 2>&1; then
    rm -f "/tmp/ci_tsan_probe.$$"
    cmake --preset tsan > /dev/null
    cmake --build --preset tsan -j "$JOBS" --target svc_test
    ctest --test-dir build-tsan -L svc --output-on-failure -j "$JOBS"
else
    skipped "thread sanitizer" tsan
fi

step "soak SLO smoke (bench_soak_slo, deterministic)"
SOAK_DIR="build-werror/soak_ci"
mkdir -p "$SOAK_DIR"
SOAK_FLAGS="--shape=bursty --duration=0.05 --seed=7 --qps=30"
# shellcheck disable=SC2086  # flags are intentionally word-split
build-werror/bench/bench_soak_slo $SOAK_FLAGS \
    --json-out="$SOAK_DIR/records_a.json" \
    --metrics-out="$SOAK_DIR/metrics.json" > /dev/null
# shellcheck disable=SC2086
build-werror/bench/bench_soak_slo $SOAK_FLAGS \
    --json-out="$SOAK_DIR/records_b.json" > /dev/null
cmp "$SOAK_DIR/records_a.json" "$SOAK_DIR/records_b.json" \
    || { echo "soak records differ across identical runs"; exit 1; }
build-werror/bench/json_check "$SOAK_DIR/metrics.json" \
    soak.ingest_e2e.sim_ps soak.query_e2e.sim_ps \
    svc.batch_apply.sim_ps journal.commit.sim_ps
build-werror/bench/json_check "$SOAK_DIR/records_a.json" \
    soak_slo ingest_e2e_p99_ps slo_pass
echo "soak SLO smoke: deterministic, schema-clean, SLO pass"

step "typed-query smoke (bench_typed_query, deterministic)"
TYPED_DIR="build-werror/typed_ci"
mkdir -p "$TYPED_DIR"
build-werror/bench/bench_typed_query \
    --json-out="$TYPED_DIR/records_a.json" \
    --metrics-out="$TYPED_DIR/metrics.json" > /dev/null
build-werror/bench/bench_typed_query \
    --json-out="$TYPED_DIR/records_b.json" > /dev/null
cmp "$TYPED_DIR/records_a.json" "$TYPED_DIR/records_b.json" \
    || { echo "typed records differ across identical runs"; exit 1; }
build-werror/bench/json_check "$TYPED_DIR/metrics.json" \
    typed.postings typed.pages_written typed.pages_read \
    typed.lookups core.typed_queries
build-werror/bench/json_check "$TYPED_DIR/records_a.json" \
    typed_query matched_lines typed_index_bytes \
    typed_device_bytes full_scan_device_bytes byte_reduction
echo "typed-query smoke: deterministic, schema-clean, bytes reduced"

step "thread-safety analysis (tools/run_tsa.sh)"
if tools/run_tsa.sh; then
    tools/run_tsa.sh --selftest
else
    rc=$?
    if [ "$rc" -eq 77 ]; then
        skipped "clang++" "thread safety (TSA)"
    else
        exit "$rc"
    fi
fi

step "domain lint (mithril_lint.py + selftest)"
python3 tools/mithril_lint.py
python3 tests/lint/lint_selftest.py > /dev/null
echo "lint selftest: ok"

step "clang-tidy"
if tools/run_tidy.sh build-werror; then
    :
else
    rc=$?
    if [ "$rc" -eq 77 ]; then
        skipped "clang-tidy" clang-tidy
    else
        exit "$rc"
    fi
fi

if [ "$FAST" -eq 1 ]; then
    step "ubsan tier skipped (--fast)"
    SKIPPED+=("ubsan (--fast)")
else
    step "ubsan build + tests (preset: ubsan)"
    cmake --preset ubsan > /dev/null
    cmake --build --preset ubsan -j "$JOBS"
    ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"
fi

if [ "${#SKIPPED[@]}" -eq 0 ]; then
    step "ALL GATES PASSED"
else
    list="${SKIPPED[0]}"
    for gate in "${SKIPPED[@]:1}"; do
        list+=", $gate"
    done
    step "ALL RUN GATES PASSED; SKIPPED: $list"
    echo "not a full pass: the skipped gates did not run on this box"
fi
