#!/usr/bin/env bash
# Builds apspd and the perfbench program from the checkout's sources, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-ring256 --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# ${CARGO_TARGET_DIR:-.bench_build}, inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/perfbench"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/perfbench/apspd" ./cmd/apspd
(cd perfbench && go build -o "$out/perfbench/perfbench" .)

exec "$out/perfbench/perfbench" -apspd "$out/perfbench/apspd" -trace-dir "$out/perfbench/traces" "$@"
