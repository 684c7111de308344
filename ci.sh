#!/usr/bin/env bash
# Tier-1 gate: build, test, format, lint, goldens, perf smoke, F-series report,
# benchmark self-test.
# Run from the repo root.
#
#   ci.sh           full gate (release build, all checks, perf smoke)
#   ci.sh --quick   debug build + tests + fmt + clippy — the fast inner loop
#
# Every step prints a `ci: <name>: <seconds>s` timing line on stderr as it
# finishes, and the full gate repeats them as a summary table at the end, so
# a slow step is visible without re-running under `time`.
set -euo pipefail
cd "$(dirname "$0")"

# Golden corpus lists shared with scripts/bless.sh.
# shellcheck source=scripts/goldens.list
source scripts/goldens.list

quick=0
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    *)
      echo "ci.sh: unknown argument \`$arg\` (only --quick is supported)" >&2
      exit 2
      ;;
  esac
done

# Runs a named step, timing it to stderr and into the summary table:
# `step NAME CMD...`.
TIMING_NAMES=()
TIMING_SECS=()
step() {
  local name="$1"
  shift
  local t0 t1 secs
  t0=$(date +%s.%N)
  "$@"
  t1=$(date +%s.%N)
  secs=$(echo "$t1 $t0" | awk '{printf "%.1f", $1 - $2}')
  TIMING_NAMES+=("$name")
  TIMING_SECS+=("$secs")
  printf 'ci: %s: %ss\n' "$name" "$secs" >&2
}

# Repeats every `ci: <name>: <s>s` timing as an aligned table on stderr.
timing_summary() {
  local i width=0
  for i in "${!TIMING_NAMES[@]}"; do
    if [ "${#TIMING_NAMES[$i]}" -gt "$width" ]; then
      width=${#TIMING_NAMES[$i]}
    fi
  done
  echo "ci: timing summary" >&2
  for i in "${!TIMING_NAMES[@]}"; do
    printf 'ci:   %-*s %6ss\n' "$width" "${TIMING_NAMES[$i]}" \
      "${TIMING_SECS[$i]}" >&2
  done
}

# Both gates lint the gate itself: ci.sh, scripts/bless.sh, and the sourced
# goldens.list must be shellcheck-clean. Skipped (loudly) where the binary
# is not installed, so the gate still runs on minimal containers.
shellcheck_scripts() {
  if ! command -v shellcheck > /dev/null 2>&1; then
    echo "ci: warning: shellcheck not installed, skipping script lint" >&2
    return 0
  fi
  shellcheck ci.sh scripts/bless.sh scripts/goldens.list
}

if [ "$quick" = 1 ]; then
  step build-debug cargo build --workspace
  step test-debug cargo test --workspace -q
  step fmt cargo fmt --all --check
  step clippy cargo clippy --workspace --all-targets -- -D warnings
  step shellcheck shellcheck_scripts
  echo "ci: quick gate passed" >&2
  exit 0
fi

step build-release cargo build --release --workspace
step test-debug cargo test --workspace -q
step test-release cargo test --workspace -q --release
step fmt cargo fmt --all --check
step clippy cargo clippy --workspace --all-targets -- -D warnings
step shellcheck shellcheck_scripts

# Shipped examples must stay lint-clean (exit 0 even under --deny warnings).
step lint-examples target/release/slp lint --deny warnings \
  examples/app.slp examples/naturals.slp

# Lint output is pinned byte-for-byte against the committed goldens, in both
# human and JSON formats. lint_demo.slp, modes_demo.slp and lint_scaled.slp
# are intentionally dirty (exit 2).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
golden_lint() {
  local stem
  for stem in "${GOLDEN_LINT_STEMS[@]}"; do
    target/release/slp lint "examples/$stem.slp" > "$tmp/$stem.txt" || true
    target/release/slp lint "examples/$stem.slp" --format json > "$tmp/$stem.json" || true
    diff -u "tests/golden/$stem.txt" "$tmp/$stem.txt"
    diff -u "tests/golden/$stem.json" "$tmp/$stem.json"
  done
}
step golden-lint golden_lint

# The parallel batch pipeline must be byte-identical to the serial run: a
# multi-file `--jobs 4` lint is the concatenation (in input order) of the
# committed per-file goldens.
golden_batch() {
  local fmt flag
  for fmt in txt json; do
    flag=""
    [ "$fmt" = json ] && flag="--format json"
    # shellcheck disable=SC2086
    target/release/slp lint examples/app.slp examples/naturals.slp \
      examples/lint_demo.slp --jobs 4 $flag > "$tmp/batch.$fmt" || true
    cat "tests/golden/app.$fmt" "tests/golden/naturals.$fmt" \
      "tests/golden/lint_demo.$fmt" > "$tmp/expected.$fmt"
    diff -u "$tmp/expected.$fmt" "$tmp/batch.$fmt"
  done
}
step golden-batch golden_batch

# The mode audit is pinned byte-for-byte in both formats (query 1 exercises
# a runtime input-boundedness violation on top of the static diagnostics, so
# the exit code is 2 by design), and the extended Theorem-6 walk must be
# byte-identical across job counts — `audit --jobs N` checks the program
# across the same worker pool and shared proof table as `check --jobs N`.
modes_golden() {
  local fmt flag jobs
  for fmt in txt json; do
    flag=""
    [ "$fmt" = json ] && flag="--format json"
    # shellcheck disable=SC2086
    target/release/slp audit examples/modes_demo.slp --modes -q 1 $flag \
      > "$tmp/modes_audit.$fmt" || true
    diff -u "tests/golden/modes_demo_audit.$fmt" "$tmp/modes_audit.$fmt"
  done
  for jobs in 1 4; do
    target/release/slp audit examples/modes_demo.slp --modes --jobs "$jobs" \
      > "$tmp/modes_jobs.$jobs" 2>&1 || true
  done
  diff -u "$tmp/modes_jobs.1" "$tmp/modes_jobs.4"
}
step modes-golden modes_golden

# `slp explain` output is pinned byte-for-byte too: a refutation core (h),
# a rejected/well-typed mix with a validated witness (q), and a pristine
# predicate (app), in both formats.
golden_explain() {
  local pred fmt flag
  for pred in "${GOLDEN_EXPLAIN_PREDS[@]}"; do
    for fmt in txt json; do
      flag=""
      [ "$fmt" = json ] && flag="--format json"
      # shellcheck disable=SC2086
      target/release/slp explain examples/ill_typed.slp "$pred" $flag \
        > "$tmp/explain_$pred.$fmt"
      diff -u "tests/golden/explain_$pred.$fmt" "$tmp/explain_$pred.$fmt"
    done
  done
}
step golden-explain golden_explain

# Every cached Proved entry must replay through the independent witness
# validator, serial and shared tables alike — and the verdicts printed on stdout
# must be byte-identical across job counts even on the ill-typed corpus
# (exit 2 there: the corpus is rejected, but the audit itself must pass,
# which we check by diffing stderr too — an E0301 would show up in it).
verify_witnesses() {
  local stem jobs
  for stem in app naturals; do
    for jobs in 1 4; do
      target/release/slp check "examples/$stem.slp" --verify-witnesses \
        --jobs "$jobs" > "$tmp/vw$jobs.out"
    done
    diff -u "$tmp/vw1.out" "$tmp/vw4.out"
  done
  for jobs in 1 4; do
    target/release/slp check examples/ill_typed.slp --verify-witnesses \
      --jobs "$jobs" > "$tmp/vw$jobs.out" 2> "$tmp/vw$jobs.err" || true
  done
  diff -u "$tmp/vw1.out" "$tmp/vw4.out"
  diff -u "$tmp/vw1.err" "$tmp/vw4.err"
  if grep -q E0301 "$tmp/vw1.err"; then
    echo "ci: witness audit failed on examples/ill_typed.slp" >&2
    return 1
  fi
}
step verify-witnesses verify_witnesses

# check under --jobs 4 (clause-level parallelism) agrees with serial too.
jobs_agree() {
  local stem
  for stem in app naturals; do
    target/release/slp check "examples/$stem.slp" --jobs 1 > "$tmp/c1.txt"
    target/release/slp check "examples/$stem.slp" --jobs 4 > "$tmp/c4.txt"
    diff -u "$tmp/c1.txt" "$tmp/c4.txt"
  done
}
step check-jobs-agree jobs_agree

# `--stats` must leave stdout byte-identical, and the JSON document must
# match the committed schema golden (key order is part of the contract).
stats_golden() {
  target/release/slp check examples/app.slp > "$tmp/plain.out"
  target/release/slp check examples/app.slp --stats --format json \
    > "$tmp/stats.out" 2> "$tmp/stats.err"
  diff -u "$tmp/plain.out" "$tmp/stats.out"
  # Mask numeric values (timers vary run to run); field names and their
  # order are the stable part of the slp-metrics/1 contract.
  sed -E 's/:[0-9]+(\.[0-9]+)?/:N/g' "$tmp/stats.err" > "$tmp/schema.txt"
  diff -u tests/golden/stats_schema.txt "$tmp/schema.txt"
}
step stats-golden stats_golden

# The serve daemon replay: a committed request transcript (cold start, a
# warm constraint-preserving delta, and one injected panic at request 5)
# is piped through `slp serve` and the response stream must match the
# committed golden byte-for-byte under both one worker and four — the
# daemon's fault recovery and incremental re-checking are part of the
# pinned contract. Under --no-table the stream is the same except for the
# two table-derived counts, which are an empty table's: a delta keeps no
# entries (`reused`, `incremental_reuse` are 0).
serve_replay() {
  local jobs
  for jobs in 1 4; do
    target/release/slp serve --stdio --jobs "$jobs" --faults panic@5 \
      < tests/golden/serve_session.requests > "$tmp/serve.$jobs"
    diff -u tests/golden/serve_session.golden "$tmp/serve.$jobs"
  done
  sed -e 's/"reused":1/"reused":0/' \
    -e 's/"incremental_reuse":1/"incremental_reuse":0/' \
    tests/golden/serve_session.golden > "$tmp/serve_untabled.golden"
  for jobs in 1 4; do
    target/release/slp serve --stdio --jobs "$jobs" --faults panic@5 \
      --no-table < tests/golden/serve_session.requests \
      > "$tmp/serve_untabled.$jobs"
    diff -u "$tmp/serve_untabled.golden" "$tmp/serve_untabled.$jobs"
  done
}
step serve-replay serve_replay

# Perf smoke gate: the deterministic BENCH_5 counter signature of the
# F6/F7 workload family must match the committed baseline exactly (counts,
# never wall time — the gate is load-independent). Re-bless intentional
# changes with scripts/bless.sh.
step perf-smoke target/release/report --smoke --baseline BENCH_5.json

# The F-series report: every section asserts the verdicts it times, so a
# clean run executes each series' checks. Its wall times are printed for
# EXPERIMENTS.md and never compared.
step report-series target/release/report > /dev/null

# The ground-closure short-circuit has its own golden: the workload is
# compared against the committed baseline in isolation, so a regression
# that stops hitting the closure (closure_hits dropping to 0) fails loudly
# even if someone loosens the full smoke's tolerance.
step closure-golden target/release/report --smoke --baseline BENCH_5.json \
  --only ground_closure

# Concurrency gate: the worker pool and the shared proof table must
# actually engage, and must never change observable output.
#
#   1. The contention_storm workload is smoke-gated in isolation: each of
#      its four items waits (10 s deadline) until all four are in flight
#      on distinct workers, so a silent fallback to serial execution
#      panics with a message and fails CI even though the byte-diff half
#      of this gate would still pass.
#   2. Every user-facing entry point (check, lint, audit --modes, serve)
#      runs under --jobs 8 — more workers than the storm uses, and enough
#      oversubscription to shuffle chunk ownership — and stdout, stderr,
#      and the exit code are compared byte-for-byte against --jobs 1.
concurrency_gate() {
  local stem jobs ec
  for stem in "${GOLDEN_LINT_STEMS[@]}"; do
    for jobs in 1 8; do
      ec=0
      target/release/slp check "examples/$stem.slp" --jobs "$jobs" \
        > "$tmp/cg_check.$jobs.out" 2> "$tmp/cg_check.$jobs.err" || ec=$?
      echo "$ec" > "$tmp/cg_check.$jobs.ec"
      ec=0
      target/release/slp lint "examples/$stem.slp" --jobs "$jobs" \
        > "$tmp/cg_lint.$jobs.out" 2> "$tmp/cg_lint.$jobs.err" || ec=$?
      echo "$ec" > "$tmp/cg_lint.$jobs.ec"
    done
    diff -u "$tmp/cg_check.1.out" "$tmp/cg_check.8.out"
    diff -u "$tmp/cg_check.1.err" "$tmp/cg_check.8.err"
    diff -u "$tmp/cg_check.1.ec" "$tmp/cg_check.8.ec"
    diff -u "$tmp/cg_lint.1.out" "$tmp/cg_lint.8.out"
    diff -u "$tmp/cg_lint.1.err" "$tmp/cg_lint.8.err"
    diff -u "$tmp/cg_lint.1.ec" "$tmp/cg_lint.8.ec"
  done
  for jobs in 1 8; do
    target/release/slp audit examples/modes_demo.slp --modes --jobs "$jobs" \
      > "$tmp/cg_audit.$jobs" 2>&1 || true
  done
  diff -u "$tmp/cg_audit.1" "$tmp/cg_audit.8"
  target/release/slp serve --stdio --jobs 8 --faults panic@5 \
    < tests/golden/serve_session.requests > "$tmp/cg_serve.8"
  diff -u tests/golden/serve_session.golden "$tmp/cg_serve.8"
}
step storm-smoke target/release/report --smoke --baseline BENCH_5.json \
  --only contention_storm
step concurrency-gate concurrency_gate

# The benchmark harness builds perfbench/probe against the library API on
# every run; its self-test runs each workload at smoke size, so an API
# change that breaks the probe's build fails here rather than in the
# benchmark.
step perfbench-smoke python3 perfbench/test_bench.py

timing_summary
echo "ci: full gate passed" >&2
