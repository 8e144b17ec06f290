#!/usr/bin/env bash
# bench_smoke.sh — CI guard on the parallel execution path: runs the warm
# full-pipeline benchmark at n=256 in both execution modes (seq and
# source-sharded) and
#
#   1. writes a speedup table to BENCH_smoke.txt (uploaded as a CI
#      artifact, so every run leaves a multi-core record),
#   2. on hosts with >= 2 cores, asserts sharded wall <= 1.05x seq wall:
#      the work-stealing fleet must never lose more than noise to the
#      sequential schedule on the size CI pays for.
#
# On a 1-core host the assertion is skipped (sharded execution there is
# honest overhead by design) and the table is still written.
#
# Usage: scripts/bench_smoke.sh [iterations]   (default 3x)
set -euo pipefail

cd "$(dirname "$0")/.."
ITERS="${1:-3x}"
CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench 'BenchmarkAPSPPipelineWarm/(seq|sharded)/n=256$' \
  -benchtime="$ITERS" -timeout 30m . | tee "$RAW"

awk -v cores="$CORES" '
  /^BenchmarkAPSPPipelineWarm\// {
    name = $1
    sub(/^BenchmarkAPSPPipelineWarm\//, "", name)
    sub(/\/n=256.*/, "", name)
    for (i = 2; i <= NF; i++) if ($(i) == "ns/op") ns[name] = $(i - 1)
  }
  END {
    if (!("seq" in ns) || !("sharded" in ns)) {
      print "bench_smoke: missing benchmark rows" > "/dev/stderr"
      exit 1
    }
    printf "bench-smoke speedup table (warm det43 pipeline, n=256, %d cores)\n", cores
    printf "  %-8s %12s %18s\n", "mode", "wall_ms", "speedup_vs_seq"
    cnt = split("seq sharded", modes, " ")
    for (m = 1; m <= cnt; m++) {
      mode = modes[m]
      printf "  %-8s %12.1f %17.2fx\n", mode, ns[mode] / 1e6, ns["seq"] / ns[mode]
    }
    if (cores < 2) {
      print "  (single-core host: seq-vs-sharded assertion skipped)"
      exit 0
    }
    if (ns["sharded"] > 1.05 * ns["seq"]) {
      printf "FAIL: sharded wall %.1fms > 1.05x seq %.1fms on a %d-core host\n", \
        ns["sharded"] / 1e6, ns["seq"] / 1e6, cores > "/dev/stderr"
      exit 1
    }
  }
' "$RAW" | tee BENCH_smoke.txt
# awk writes the table to stdout and its verdict via exit status; the tee
# above preserves both, and pipefail makes an assertion failure fail the
# script (and the CI step).
