#!/usr/bin/env bash
# check_allocs.sh — allocation-regression gate for the pooled-scratch
# steady state (DESIGN.md §7).
#
# Runs the full-pipeline benchmark at the CI-sized configuration, parses
# allocs/op, and fails when any matched benchmark regressed more than
# THRESHOLD_PCT versus the committed baseline JSON. Wall-clock is NOT
# gated here (shared CI runners are too noisy); allocation counts are
# deterministic, so a tight threshold is safe.
#
# Sharded allocation counts depend on the worker count (each worker owns a
# clone of the network), so the benchmark runs at the GOMAXPROCS recorded
# in the baseline's "gomaxprocs" field, whatever the host's core count.
#
# Usage (from the repo root):
#
#   scripts/check_allocs.sh [bench_regex] [baseline_json] [threshold_pct]
#
# Defaults: 'BenchmarkAPSPPipeline/(seq|sharded|seq-lasthops)/n=128',
# BENCH_apsp.json, 10.
set -euo pipefail
cd "$(dirname "$0")/.."

REGEX="${1:-BenchmarkAPSPPipeline/(seq|sharded|seq-lasthops)/n=128}"
BASELINE="${2:-BENCH_apsp.json}"
THRESHOLD="${3:-10}"

if [ ! -f "$BASELINE" ]; then
  echo "check_allocs: baseline $BASELINE not found" >&2
  exit 1
fi
CPU="$(jq -r '.gomaxprocs // empty' "$BASELINE")"
if [ -z "$CPU" ]; then
  echo "check_allocs: baseline $BASELINE records no gomaxprocs" >&2
  exit 1
fi

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT
go test -run '^$' -bench "$REGEX" -benchtime=1x -benchmem -cpu "$CPU" -timeout 30m . | tee "$RAW"

fail=0
while read -r name allocs; do
  base="$(jq -r --arg n "$name" '.results[] | select(.name == $n) | .allocs_per_op' "$BASELINE")"
  if [ -z "$base" ] || [ "$base" = "null" ]; then
    echo "check_allocs: $name: no baseline entry in $BASELINE (skipped)"
    continue
  fi
  # Integer math: new*100 must stay within base*(100+threshold).
  if [ $((allocs * 100)) -gt $((base * (100 + THRESHOLD))) ]; then
    echo "check_allocs: FAIL $name: ${allocs} allocs/op vs baseline ${base} (> +${THRESHOLD}%)"
    fail=1
  else
    echo "check_allocs: ok   $name: ${allocs} allocs/op vs baseline ${base}"
  fi
done < <(awk '/^Benchmark/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") print name, $(i - 1)
}' "$RAW")

exit "$fail"
