#!/usr/bin/env bash
# Regenerates every committed golden artifact deterministically:
#
#   tests/golden/{app,naturals,lint_demo,modes_demo,lint_scaled}.{txt,json}
#                                                      lint output goldens
#   tests/golden/modes_demo_audit.{txt,json}           slp audit --modes goldens
#   tests/golden/explain_{q,h,app}.{txt,json}          slp explain goldens
#   tests/golden/stats_schema.txt                      --stats JSON schema
#   tests/golden/serve_session.golden                  serve replay golden
#   BENCH_5.json                                       perf smoke baseline
#
# Run from anywhere; operates on the repo that contains this script. Review
# the diff before committing — a bless turns current behaviour into the
# contract that ci.sh enforces.
set -euo pipefail
cd "$(dirname "$0")/.."

# Golden corpus lists shared with ci.sh.
# shellcheck source=scripts/goldens.list
source scripts/goldens.list

cargo build --release -p subtype-lp -p bench

# Lint goldens, human and JSON (lint_demo, modes_demo and lint_scaled are
# intentionally dirty: exit 2).
for stem in "${GOLDEN_LINT_STEMS[@]}"; do
  target/release/slp lint "examples/$stem.slp" > "tests/golden/$stem.txt" || true
  target/release/slp lint "examples/$stem.slp" --format json \
    > "tests/golden/$stem.json" || true
  echo "blessed tests/golden/$stem.{txt,json}" >&2
done

# The mode audit golden: query 1 calls `use` with an unbound input, so the
# output carries the full mode report, the static diagnostics, and one
# runtime violation from the extended Theorem-6 walk (exit 2 by design).
target/release/slp audit examples/modes_demo.slp --modes -q 1 \
  > tests/golden/modes_demo_audit.txt || true
target/release/slp audit examples/modes_demo.slp --modes -q 1 --format json \
  > tests/golden/modes_demo_audit.json || true
echo "blessed tests/golden/modes_demo_audit.{txt,json}" >&2

# Explain goldens over the deliberately ill-typed corpus: a refutation core
# (h), a rejected-and-well-typed mix with a validated witness (q), and a
# pristine predicate (app). Paths stay relative so the embedded `file`
# strings are reproducible from the repo root.
for pred in "${GOLDEN_EXPLAIN_PREDS[@]}"; do
  target/release/slp explain examples/ill_typed.slp "$pred" \
    > "tests/golden/explain_$pred.txt"
  target/release/slp explain examples/ill_typed.slp "$pred" --format json \
    > "tests/golden/explain_$pred.json"
  echo "blessed tests/golden/explain_$pred.{txt,json}" >&2
done

# The --stats schema golden: the slp-metrics/1 document with every numeric
# value masked to N, pinning field names and order byte-for-byte.
target/release/slp check examples/app.slp --stats --format json \
  2>&1 >/dev/null |
  sed -E 's/:[0-9]+(\.[0-9]+)?/:N/g' > tests/golden/stats_schema.txt
echo "blessed tests/golden/stats_schema.txt" >&2

# The serve replay golden: the committed request transcript replayed
# through the daemon (serial here; ci.sh additionally checks that four
# workers produce the identical stream).
target/release/slp serve --stdio --jobs 1 --faults panic@5 \
  < tests/golden/serve_session.requests > tests/golden/serve_session.golden
echo "blessed tests/golden/serve_session.golden" >&2

# The perf smoke baseline: deterministic BENCH_5 counters. The serial
# workloads are the same on every machine; contention_storm runs a real
# 4-worker pool but publishes only exact counters (its items wait until
# all four are in flight) and fixed ceilings for its racy counters, so it
# blesses deterministically too.
target/release/report --bench5 --out BENCH_5.json

echo "bless: done — review with \`git diff\` before committing" >&2
