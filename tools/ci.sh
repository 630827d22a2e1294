#!/usr/bin/env bash
# Tier-1 CI gate: configure + build with -Wall -Wextra -Werror, run the
# static-analysis gates (splicer_lint over the tree, clang-tidy over
# compile_commands.json when the binary is available), run the full ctest
# suite, then re-run the fast `smoke` label on its own so the cheap-suite
# subset is exercised exactly as developers use it.
#
# The perfbench smoke test then builds the repository benchmark from source
# and runs every workload at tiny sizes, so a src change that breaks the
# benchmark binary (or its output checks) fails CI.
#
# After the unit suites, the fig7 bench runs in its smoke configuration
# three times to pin the batched-settlement contract:
#   1. --threads 1, epoch 0   -> the sequential baseline CSVs, which must
#      also be byte-identical to the frozen pre-refactor baseline in
#      tests/data/fig7_baseline (pins SyntheticSource + streaming engine +
#      the typed pooled-event scheduler: epoch-0 event streams must never
#      drift across refactors)
#   2. default threads, epoch 0 -> must be byte-identical to the baseline
#      (parallel runner AND the epoch-0 engine path change nothing)
#   3. epoch 10 ms            -> must be byte-identical to the frozen
#      batched baseline in tests/data/fig7_epoch10_baseline (pins the
#      batched path: epoch flushes, arrival buckets and the unwind walks
#      folded into the settlement buffer)
# The fig8 bench then runs its smoke configuration once, --threads 1, and
# must reproduce tests/data/fig8_baseline byte for byte: at 3000 nodes every
# path cache misses, so this pins the paths the shortest-path search returns
# to Spider, Flash and the ShortestPath baseline.
#
# The engine hot-path microbench then runs in fast mode and its
# BENCH_engine_hotpath.json is archived in the build dir, so every CI run
# records the events/sec trajectory of the event loop.
#
# Finally the workload subsystem smokes: a trace replay of the checked-in
# example trace through splicer_cli, plus streaming bursty/hotspot runs, an
# eviction check (a materialised and a streaming run must each hold fewer
# payment states at once than they have payments), and an ASan+UBSan
# build (with libstdc++'s bounds-checked containers, _GLIBCXX_ASSERTIONS)
# of the smoke-label ctest subset so eviction-order bugs surface as
# hard errors instead of flakes. The same build runs the fig8 smoke
# (--threads 1) and diffs it against its frozen baseline, so the graph
# searches' label and residual indexing runs at 3,000 nodes under the
# sanitizers.
#
# A SPLICER_AUDIT=ON build then runs the smoke-label suites with the
# scheduler heap-order witness, the engine's queue-accounting witness and
# the rate routers' demand-pool and path-slice witnesses compiled in — the runtime backstop for what splicer_lint can only
# approximate statically. The same build runs the fig7 smoke (--threads 1)
# at epoch 0 and at epoch 10 ms and diffs each against its frozen baseline,
# so the witnesses also see the real Splicer and Spider event streams: lazy
# cancels, drip timers, the per-tau rate sweep and batched flushes.
#
# Hostile-world gates (fault injection / channel churn / policy mutators):
#   * the robustness bench runs its fast sweep — it exits nonzero itself if
#     any cell ends with resident TUs or wedged queue value — at epochs 0
#     and 10 ms, and each JSON must match its frozen baseline in
#     tests/data/robustness_baseline byte for byte (again under ASan+UBSan);
#   * explicit rate-0 flags through splicer_cli must reproduce the benign
#     run byte-for-byte (the mutator plumbing is provably dormant at rate
#     0, complementing the fig7 frozen-baseline diff above);
#   * a churn-storm stress (DeadlockUnderChurn) re-runs under the AUDIT
#     build so the close/refund sweeps execute with the dynamic witnesses
#     on, and the mutator + robustness suites re-run under ASan+UBSan.
#
# Last, a ThreadSanitizer build runs the suites of the code that runs on
# several threads (thread pool, parallel experiment runner), so a data race
# in the trial/scheme fan-out is a hard CI error.
#
# Usage: tools/ci.sh [build-dir]   (default: build-ci)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

cmake -B "$BUILD_DIR" -S . -DSPLICER_WERROR=ON -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "CI: splicer-lint repo-contract gate"
# Hard gate: zero unsuppressed findings across the tree. Every
# SPLICER_LINT_ALLOW must name a rule and carry a reason (bare allows are
# findings too), so this line is the machine check behind the determinism
# contracts README documents under "Static analysis & code contracts".
# The run is timed: the two-phase analysis (scrub + call graph + graph
# rules) must stay cheap enough to sit on the pre-test critical path, so
# a whole-tree pass over budget is itself a CI failure.
LINT_BUDGET_SECS=10
lint_start=$(date +%s)
"$BUILD_DIR/splicer_lint" --error-on-findings src tools bench examples
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "CI: splicer-lint whole-tree run took ${lint_elapsed}s (budget ${LINT_BUDGET_SECS}s)"
if [ "$lint_elapsed" -gt "$LINT_BUDGET_SECS" ]; then
  echo "CI: FAIL splicer-lint exceeded its runtime budget" >&2
  exit 1
fi
# Machine-readable report for the workflow artifact: same tree, SARIF 2.1.0
# with the full rule table as driver metadata.
"$BUILD_DIR/splicer_lint" --format sarif src tools bench examples \
  > "$BUILD_DIR/splicer_lint.sarif"
echo "CI: SARIF report written to $BUILD_DIR/splicer_lint.sarif"

echo "CI: clang-tidy over compile_commands.json"
if command -v clang-tidy >/dev/null 2>&1; then
  # The curated .clang-tidy (bugprone/performance/concurrency/const subset,
  # warnings-as-errors) over every src/ TU. xargs fans out one TU per core;
  # any diagnostic fails the gate.
  find src -name '*.cpp' -print0 |
    xargs -0 -P "$JOBS" -n 1 clang-tidy -p "$BUILD_DIR" --quiet
else
  # The container image has no clang-tidy; the GitHub `lint` job installs
  # it and enforces this gate on every push/PR.
  echo "CI: clang-tidy not found locally; enforced by the workflow lint job"
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
ctest --test-dir "$BUILD_DIR" -L smoke -j "$JOBS"

echo "CI: perfbench smoke test (benchmark builds and checks its outputs)"
python3 perfbench/smoke_test.py

SMOKE_DIR="$BUILD_DIR/fig7-smoke"
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR/baseline" "$SMOKE_DIR/epoch0" "$SMOKE_DIR/epoch10"

echo "CI: fig7 smoke, sequential epoch-0 baseline"
SPLICER_BENCH_FAST=1 SPLICER_BENCH_CSV="$SMOKE_DIR/baseline" \
  "$BUILD_DIR/bench_fig7_small_scale" --threads 1 > "$SMOKE_DIR/baseline.txt"

echo "CI: fig7 smoke vs frozen pre-refactor baseline (workload subsystem)"
diff -r tests/data/fig7_baseline "$SMOKE_DIR/baseline"

echo "CI: fig7 smoke, parallel epoch-0 (must match baseline byte-for-byte)"
SPLICER_BENCH_FAST=1 SPLICER_BENCH_CSV="$SMOKE_DIR/epoch0" \
  "$BUILD_DIR/bench_fig7_small_scale" --settlement-epoch 0 > "$SMOKE_DIR/epoch0.txt"
diff -r "$SMOKE_DIR/baseline" "$SMOKE_DIR/epoch0"

echo "CI: fig7 smoke, batched settlement (epoch 10 ms) vs frozen baseline"
SPLICER_BENCH_FAST=1 SPLICER_BENCH_CSV="$SMOKE_DIR/epoch10" \
  "$BUILD_DIR/bench_fig7_small_scale" --settlement-epoch 10 > "$SMOKE_DIR/epoch10.txt"
diff -r tests/data/fig7_epoch10_baseline "$SMOKE_DIR/epoch10"

echo "CI: fig8 smoke vs frozen baseline (large-scale path selection)"
mkdir -p "$SMOKE_DIR/fig8"
SPLICER_BENCH_FAST=1 SPLICER_BENCH_CSV="$SMOKE_DIR/fig8" \
  "$BUILD_DIR/bench_fig8_large_scale" --threads 1 > "$SMOKE_DIR/fig8.txt"
diff -r tests/data/fig8_baseline "$SMOKE_DIR/fig8"

echo "CI: engine hot-path microbench (archives BENCH_engine_hotpath.json)"
"$BUILD_DIR/bench_engine_hotpath" --fast --repeat 2 \
  --json "$BUILD_DIR/BENCH_engine_hotpath.json" > "$SMOKE_DIR/hotpath.txt"
# The JSON must exist and carry per-scheme events/sec rows.
grep -q '"events_per_sec"' "$BUILD_DIR/BENCH_engine_hotpath.json"

echo "CI: trace replay smoke (splicer_cli --workload trace)"
"$BUILD_DIR/splicer_cli" compare --nodes 60 --workload trace \
  --trace-file examples/traces/sample_trace.csv > "$SMOKE_DIR/trace.txt"
grep -q "workload trace" "$SMOKE_DIR/trace.txt"

echo "CI: streaming bursty + hotspot smokes"
"$BUILD_DIR/splicer_cli" compare --nodes 60 --payments 300 \
  --workload bursty --streaming > "$SMOKE_DIR/bursty.txt"
"$BUILD_DIR/splicer_cli" compare --nodes 60 --payments 300 \
  --workload hotspot --trials 2 > "$SMOKE_DIR/hotspot.txt"

echo "CI: eviction smoke (materialised and streaming runs both evict states)"
"$BUILD_DIR/splicer_cli" compare --nodes 60 --payments 300 \
  > "$SMOKE_DIR/evict_materialised.txt"
"$BUILD_DIR/splicer_cli" compare --nodes 60 --payments 300 --streaming \
  > "$SMOKE_DIR/evict_streaming.txt"
# The resident column (last) of all six scheme rows must stay below the
# 300 payments: a run that kept resolved states would reach 300.
for run in evict_materialised evict_streaming; do
  awk '$1 ~ /^(Splicer|Spider|Flash|Landmark|A2L|ShortestPath)$/ {
         rows++; if ($NF + 0 >= 300) bad = 1 }
       END { exit !(rows == 6 && !bad) }' "$SMOKE_DIR/$run.txt"
done

echo "CI: hostile-world robustness bench (wedge-free fault/churn/policy sweep)"
SPLICER_BENCH_FAST=1 "$BUILD_DIR/bench_fig_robustness" \
  --json "$BUILD_DIR/BENCH_fig_robustness.json" > "$SMOKE_DIR/robustness.txt"
# The JSON must carry all three mutation panels with live mutation streams
# (an all-zero event count would mean the sweep silently ran benign).
grep -q '"mutation": "fault"' "$BUILD_DIR/BENCH_fig_robustness.json"
grep -q '"mutation": "churn"' "$BUILD_DIR/BENCH_fig_robustness.json"
grep -q '"mutation": "policy"' "$BUILD_DIR/BENCH_fig_robustness.json"
grep -q '"mutation_events": [1-9]' "$BUILD_DIR/BENCH_fig_robustness.json"

echo "CI: robustness JSON at epochs 0 and 10 ms vs frozen baselines"
# Every hostile cell (faults, churn refunds, policy rewrites) at both
# settlement modes, byte for byte: the fig7/fig8 diffs above run benign
# only. The JSON is the same at any --threads.
diff tests/data/robustness_baseline/epoch0.json \
  "$BUILD_DIR/BENCH_fig_robustness.json"
SPLICER_BENCH_FAST=1 "$BUILD_DIR/bench_fig_robustness" --settlement-epoch 10 \
  --json "$BUILD_DIR/BENCH_fig_robustness_epoch10.json" \
  > "$SMOKE_DIR/robustness_epoch10.txt"
diff tests/data/robustness_baseline/epoch10.json \
  "$BUILD_DIR/BENCH_fig_robustness_epoch10.json"

echo "CI: hostile-world rate-0 byte-identity (explicit zero-rate flags)"
"$BUILD_DIR/splicer_cli" compare --nodes 60 --payments 300 \
  > "$SMOKE_DIR/benign.txt"
"$BUILD_DIR/splicer_cli" compare --nodes 60 --payments 300 \
  --fault-rate 0 --churn-rate 0 --fee-policy 0 > "$SMOKE_DIR/rate0.txt"
diff "$SMOKE_DIR/benign.txt" "$SMOKE_DIR/rate0.txt"

echo "CI: hostile-world CLI smoke (active mutators + timelock budget)"
"$BUILD_DIR/splicer_cli" compare --nodes 60 --payments 300 \
  --fault-rate 2 --churn-rate 2 --fee-policy 1 --timelock-budget 16 \
  > "$SMOKE_DIR/hostile.txt"
grep -q "hostile: fault-rate 2" "$SMOKE_DIR/hostile.txt"

echo "CI: ASan+UBSan smoke subset"
SAN_DIR="$BUILD_DIR-asan"
cmake -B "$SAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSPLICER_SANITIZE=ON -DSPLICER_BUILD_BENCH=ON
cmake --build "$SAN_DIR" -j "$JOBS"
ctest --test-dir "$SAN_DIR" -L smoke --output-on-failure -j "$JOBS"
# The hostile-world suites under the sanitizers: the churn close-sweep
# refunds TUs whose vectors were moved out at resolution, so any stale
# read through a resolved LiveTu surfaces here as a hard error.
ctest --test-dir "$SAN_DIR" --output-on-failure -j "$JOBS" \
  -R 'scenario_mutator_test|robustness_test'
# The fig8 smoke under the sanitizers: the stamped labels, lazy residuals
# and flattened adjacency of the graph searches indexed at 3,000 nodes, on
# the real Spider and Flash query streams, and still byte-identical.
echo "CI: fig8 smoke under ASan+UBSan vs frozen baseline"
mkdir -p "$SMOKE_DIR/asan-fig8"
SPLICER_BENCH_FAST=1 SPLICER_BENCH_CSV="$SMOKE_DIR/asan-fig8" \
  "$SAN_DIR/bench_fig8_large_scale" --threads 1 > "$SMOKE_DIR/asan-fig8.txt"
diff -r tests/data/fig8_baseline "$SMOKE_DIR/asan-fig8"
echo "CI: robustness JSON under ASan+UBSan vs frozen baselines (epochs 0, 10 ms)"
for epoch in 0 10; do
  SPLICER_BENCH_FAST=1 "$SAN_DIR/bench_fig_robustness" --settlement-epoch "$epoch" \
    --json "$SMOKE_DIR/asan-robustness-epoch$epoch.json" \
    > "$SMOKE_DIR/asan-robustness-epoch$epoch.txt"
  diff "tests/data/robustness_baseline/epoch$epoch.json" \
    "$SMOKE_DIR/asan-robustness-epoch$epoch.json"
done

echo "CI: SPLICER_AUDIT smoke subset (dynamic contract witnesses)"
AUDIT_DIR="$BUILD_DIR-audit"
cmake -B "$AUDIT_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSPLICER_AUDIT=ON -DSPLICER_BUILD_BENCH=ON
cmake --build "$AUDIT_DIR" -j "$JOBS"
ctest --test-dir "$AUDIT_DIR" -L smoke --output-on-failure -j "$JOBS"
echo "CI: churn-storm stress under SPLICER_AUDIT (dynamic witnesses on)"
"$AUDIT_DIR/robustness_test" --gtest_filter='DeadlockUnderChurn.*'
echo "CI: fig7 smoke under SPLICER_AUDIT vs frozen baseline"
mkdir -p "$SMOKE_DIR/audit-fig7"
SPLICER_BENCH_FAST=1 SPLICER_BENCH_CSV="$SMOKE_DIR/audit-fig7" \
  "$AUDIT_DIR/bench_fig7_small_scale" --threads 1 > "$SMOKE_DIR/audit-fig7.txt"
diff -r tests/data/fig7_baseline "$SMOKE_DIR/audit-fig7"
echo "CI: fig7 epoch-10 smoke under SPLICER_AUDIT vs frozen baseline"
mkdir -p "$SMOKE_DIR/audit-fig7-epoch10"
SPLICER_BENCH_FAST=1 SPLICER_BENCH_CSV="$SMOKE_DIR/audit-fig7-epoch10" \
  "$AUDIT_DIR/bench_fig7_small_scale" --threads 1 --settlement-epoch 10 \
  > "$SMOKE_DIR/audit-fig7-epoch10.txt"
diff -r tests/data/fig7_epoch10_baseline "$SMOKE_DIR/audit-fig7-epoch10"

echo "CI: ThreadSanitizer smoke (thread pool, parallel experiment runner)"
TSAN_DIR="$BUILD_DIR-tsan"
cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSPLICER_SANITIZE=thread -DSPLICER_BUILD_BENCH=OFF
cmake --build "$TSAN_DIR" -j "$JOBS" --target \
  thread_pool_test parallel_experiment_test
ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$JOBS" \
  -R 'thread_pool_test|parallel_experiment_test'

echo "CI: all green"
