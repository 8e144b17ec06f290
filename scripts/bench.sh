#!/usr/bin/env bash
# bench.sh — run the perf-trajectory benchmarks and emit machine-readable
# JSON consumed by CI dashboards and PR descriptions:
#
#   BENCH_engine.json  engine-critical microbenchmarks (ns/op, allocs/op),
#                      including the charged all-to-all broadcast, the
#                      charged per-tree upcast, the ring-n256 blocker-set
#                      construction and step 8's charged last-edge
#                      resolution, one section per GOMAXPROCS in {1, 2}
#                      (a section above the host's core count is skipped)
#   BENCH_apsp.json    full-pipeline apsp.Run wall-clock + allocs at
#                      n in {128, 256, 512}, sequential vs source-sharded,
#                      plus the warm apsp.Runner re-run rows
#                      (BenchmarkAPSPPipelineWarm, seq/sharded) for the
#                      cold-vs-warm session comparison; its gomaxprocs
#                      field is the -cpu scripts/check_allocs.sh gates at
#   BENCH_stages.json  per-stage seq-vs-sharded wall of one det43 n=256
#                      sweep per GOMAXPROCS in {1, 2, 4}
#                      (sections above the host's core count are skipped,
#                      so a 1-core host records only its own section)
#   BENCH_update.json  incremental-update throughput (BenchmarkAPSPUpdate):
#                      single-edge weight toggles against a warm Runner,
#                      with updates/sec, the speedup versus the cold
#                      BenchmarkAPSPPipeline/seq row at the same n, and
#                      the systems an update recomputed and reused each
#                      way (up to w+2, down to w+1), one section per
#                      GOMAXPROCS in {1, 2}
#   BENCH_serve.json   serving-layer latency percentiles (cmd/apspload
#                      -selfhost) per traffic mix, including a journaled
#                      postupdate row (-data-dir, fsync=interval) whose
#                      delta against the in-memory postupdate row is the
#                      durability overhead README quotes, one section per
#                      GOMAXPROCS in {1, 2}
#   EXPERIMENTS.json   the scenario-corpus sweep (cmd/experiment): every
#                      registered family x all 4 algorithm profiles x
#                      seq/sharded at n in {64, 128}, oracle-checked, with
#                      the staged executor's per-stage breakdown per row
#
# Run from the repo root:
#
#   scripts/bench.sh [benchtime [suite...]]
#
# benchtime defaults to 2s per engine benchmark; the full-pipeline suite
# always runs one iteration per configuration (a single n=512 run takes
# tens of seconds of simulated work), and the update suite three, its cold
# rows included. The
# suites are engine, apsp, stages, update, serve and experiments, one per
# file above; naming some after the benchtime regenerates only theirs, in
# the order given (scripts/bench.sh 2s update rewrites BENCH_update.json
# alone), and naming none runs them all, which takes tens of minutes.
# Every file records the host, its core count, the Go version and the
# commit (suffixed -dirty when the tree has uncommitted changes, as when a
# regeneration is committed with the change it measures), and each row
# set its effective GOMAXPROCS: the sharded/sequential ratio is only
# meaningful when GOMAXPROCS > 1.
set -euo pipefail

cd "$(dirname "$0")/.."
BENCHTIME="${1:-2s}"
CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
# The Go runtime defaults GOMAXPROCS to the core count; an explicit env
# override is what the benchmark processes will actually run with.
MAXPROCS="${GOMAXPROCS:-$CORES}"
HOST="$(hostname 2>/dev/null || uname -n)"
GOVERSION="$(go env GOVERSION)"
COMMIT="$(git describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)"
# ident: the JSON fields that say where and on what code a file was made.
ident() {
  printf '"host": "%s",\n  "go": "%s",\n  "commit": "%s",\n  ' "$HOST" "$GOVERSION" "$COMMIT"
}

# report_deltas old_json new_json: per-benchmark allocs_per_op deltas of a
# regeneration versus the previously committed snapshot, so a bench refresh
# shows at a glance what moved (scripts/check_allocs.sh gates the same
# quantity in CI).
# A file with GOMAXPROCS sections (BENCH_engine.json, BENCH_update.json)
# is compared section by section, each row named with its GOMAXPROCS.
report_deltas() {
  command -v jq >/dev/null 2>&1 || return 0 # delta report is informational
  [ -s "$1" ] || return 0
  jq -r --slurpfile old "$1" '
    def rows: if has("sections")
      then [.sections[] | .gomaxprocs as $p | .results[] | .name += " P=\($p)"]
      else .results end;
    ($old[0] | rows | map({(.name): .allocs_per_op}) | add) as $prev |
    rows[] | select(.allocs_per_op != null) |
    "\(.name) allocs/op: \($prev[.name] // "n/a") -> \(.allocs_per_op)"
  ' "$2" | sed 's/^/  delta /'
}

emit_json() { # emit_json suite benchtime raw_file out_file
  awk -v suite="$1" -v benchtime="$2" -v cores="$CORES" -v maxprocs="$MAXPROCS" -v ident="$(ident)" '
    /^Benchmark/ {
      name = $1
      sub(/-[0-9]+$/, "", name) # strip -GOMAXPROCS suffix
      ns = ""; allocs = ""
      for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     ns = $(i - 1)
        if ($(i) == "allocs/op") allocs = $(i - 1)
      }
      if (ns != "") {
        if (count++) printf ",\n"
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns
        if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
        printf "}"
      }
    }
    BEGIN {
      printf "{\n  \"suite\": \"%s\",\n  %s\"benchtime\": \"%s\",\n  \"cores\": %s,\n  \"gomaxprocs\": %s,\n  \"results\": [\n", suite, ident, benchtime, cores, maxprocs
    }
    END { printf "\n  ]\n}\n" }
  ' "$3" > "$4"
  echo "wrote $4"
}

RAW="$(mktemp)"
OLD="$(mktemp)"
trap 'rm -f "$RAW" "$OLD"' EXIT

# Engine microbenchmarks, one section per GOMAXPROCS. A simulated round
# runs on one goroutine, so the engine rows differ between sections only
# by the runtime's own background work.
suite_engine() {
  cp BENCH_engine.json "$OLD" 2>/dev/null || : > "$OLD"
  {
    printf '{\n  "suite": "engine",\n  %s"benchtime": "%s",\n  "cores": %s,\n  "sections": [\n' "$(ident)" "$BENCHTIME" "$CORES"
    FIRST=1
    for P in 1 2; do
      if [ "$P" -gt 1 ] && [ "$P" -gt "$CORES" ]; then
        continue
      fi
      GOMAXPROCS=$P go test -run '^$' \
        -bench 'BenchmarkSimulatorRound|BenchmarkDistributedBellmanFord|BenchmarkAllToAll|BenchmarkTreeUpcast|BenchmarkBlockerCompute|BenchmarkLastEdges' \
        -benchtime="$BENCHTIME" -benchmem . > "$RAW"
      GOMAXPROCS=$P go test -run '^$' -bench 'BenchmarkEngine' -benchtime="$BENCHTIME" \
        ./internal/congest/ >> "$RAW"
      cat "$RAW" >&2
      MAXPROCS=$P emit_json engine "$BENCHTIME" "$RAW" "$RAW.p$P" >&2
      [ "$FIRST" -eq 1 ] || printf ',\n'
      FIRST=0
      printf '%s' "$(sed 's/^/    /' "$RAW.p$P")"
      rm -f "$RAW.p$P"
    done
    printf '\n  ]\n}\n'
  } > BENCH_engine.json
  echo "wrote BENCH_engine.json"
  report_deltas "$OLD" BENCH_engine.json
}

# Full-pipeline wall and allocations (BENCH_apsp.json), one iteration per
# configuration.
suite_apsp() {
  : > "$RAW"
  go test -run '^$' -bench 'BenchmarkAPSPPipeline' -benchtime=1x -benchmem -timeout 60m . | tee "$RAW"

  cp BENCH_apsp.json "$OLD" 2>/dev/null || : > "$OLD"
  emit_json apsp 1x "$RAW" BENCH_apsp.json
  report_deltas "$OLD" BENCH_apsp.json
}

# Per-stage wall at several worker counts (BENCH_stages.json): one det43
# sweep of random-n256-s1 per GOMAXPROCS in {1, 2, 4}, seq vs sharded,
# with the staged executor's per-stage wall on every row. Sections above
# the host's core count are skipped — the sharded walls only mean something
# when the workers exist — so the artifact honestly records what this host
# could measure.
suite_stages() {
  {
    printf '{\n  "suite": "stages",\n  %s"cores": %s,\n  "sections": [\n' "$(ident)" "$CORES"
    FIRST=1
    for P in 1 2 4; do
      if [ "$P" -gt 1 ] && [ "$P" -gt "$CORES" ]; then
        continue
      fi
      GOMAXPROCS=$P go run ./cmd/experiment -scenarios random-n256-s1 \
        -algorithms det43 -exec seq,sharded -json "$RAW.stage" -q >/dev/null
      [ "$FIRST" -eq 1 ] || printf ',\n'
      FIRST=0
      printf '    {"gomaxprocs": %s, "sweep":\n' "$P"
      sed 's/^/    /' "$RAW.stage"
      printf '    }'
    done
    printf '\n  ]\n}\n'
  } > BENCH_stages.json
  rm -f "$RAW.stage"
  echo "wrote BENCH_stages.json"
}

# Incremental-update throughput (BENCH_update.json), one section per
# GOMAXPROCS in {1, 2} (a section above the host's core count is skipped).
# The update suite needs a custom emitter: each section runs
# BenchmarkAPSPUpdate and the cold BenchmarkAPSPPipeline/seq rows at the
# same n and GOMAXPROCS, and joins them to derive updates/sec and the
# incremental-vs-cold speedup — the quantities the dynamic-graphs story is
# sold on.
suite_update() {
  cp BENCH_update.json "$OLD" 2>/dev/null || : > "$OLD"
  {
    printf '{\n  "suite": "update",\n  %s"benchtime": "3x",\n  "cores": %s,\n  "sections": [\n' "$(ident)" "$CORES"
    FIRST=1
    for P in 1 2; do
      if [ "$P" -gt 1 ] && [ "$P" -gt "$CORES" ]; then
        continue
      fi
      GOMAXPROCS=$P go test -run '^$' -bench 'BenchmarkAPSPUpdate' -benchtime=3x -benchmem -timeout 30m . > "$RAW"
      GOMAXPROCS=$P go test -run '^$' -bench '^BenchmarkAPSPPipeline$/^seq$/^n=(128|256)$' -benchtime=3x \
        -benchmem -timeout 30m . >> "$RAW"
      cat "$RAW" >&2
      [ "$FIRST" -eq 1 ] || printf ',\n'
      FIRST=0
      awk -v cores="$CORES" -v maxprocs="$P" '
        NR == FNR {
          if ($1 ~ /^BenchmarkAPSPPipeline\/seq\/n=/) {
            n = $1; sub(/.*\/n=/, "", n); sub(/-[0-9]+$/, "", n)
            for (i = 2; i <= NF; i++) if ($(i) == "ns/op") cold[n] = $(i - 1)
          }
          next
        }
        /^BenchmarkAPSPUpdate/ {
          name = $1
          sub(/-[0-9]+$/, "", name)
          ns = ""; allocs = ""; split("", sys)
          for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op")      ns = $(i - 1)
            if ($(i) == "allocs/op")  allocs = $(i - 1)
            if ($(i) ~ /^(recomputed|reused)-(up|down)$/) sys[$(i)] = $(i - 1)
          }
          if (ns == "") next
          n = name; sub(/.*\/n=/, "", n)
          if (count++) printf ",\n"
          printf "        {\"name\": \"%s\", \"ns_per_op\": %s", name, ns
          if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
          printf ", \"updates_per_sec\": %.1f", 1e9 / ns
          if (n in cold) printf ", \"cold_ns_per_op\": %s, \"speedup_vs_cold\": %.1f", cold[n], cold[n] / ns
          if ("reused-up" in sys) {
            printf ", \"recomputed_up\": %d, \"reused_up\": %d", sys["recomputed-up"], sys["reused-up"]
            printf ", \"recomputed_down\": %d, \"reused_down\": %d", sys["recomputed-down"], sys["reused-down"]
          }
          printf "}"
        }
        BEGIN {
          printf "    {\n      \"suite\": \"update\",\n      \"benchtime\": \"3x\",\n      \"cores\": %s,\n      \"gomaxprocs\": %s,\n      \"results\": [\n", cores, maxprocs
        }
        END { printf "\n      ]\n    }" }
      ' "$RAW" "$RAW"
    done
    printf '\n  ]\n}\n'
  } > BENCH_update.json
  echo "wrote BENCH_update.json"
  report_deltas "$OLD" BENCH_update.json
}

# Serving-layer latency percentiles (BENCH_serve.json), one section per
# GOMAXPROCS in {1, 2} (a section above the host's core count is skipped):
# the deterministic load generator drives an in-process daemon (cmd/apspload
# -selfhost) for each traffic mix at n in {128, 256}. Request counts are
# scaled to the cost of a miss in each mix: cached queries are ~free (an
# untimed warm-up query pays the graph's first run), a warmmiss request is
# a full warm APSP run, postupdate alternates incremental re-runs with
# cache hits.
suite_serve() {
  {
    printf '{\n  "suite": "serve",\n  %s"cores": %s,\n  "sections": [\n' "$(ident)" "$CORES"
    FIRST=1
    for P in 1 2; do
      if [ "$P" -gt 1 ] && [ "$P" -gt "$CORES" ]; then
        continue
      fi
      : > "$RAW"
      for n in 128 256; do
        case "$n" in
          128) REQ_CACHED=200; REQ_WARMMISS=6; REQ_POSTUPDATE=40 ;;
          *)   REQ_CACHED=100; REQ_WARMMISS=4; REQ_POSTUPDATE=20 ;;
        esac
        for mix in cached warmmiss postupdate; do
          case "$mix" in
            cached)     REQ=$REQ_CACHED ;;
            warmmiss)   REQ=$REQ_WARMMISS ;;
            postupdate) REQ=$REQ_POSTUPDATE ;;
          esac
          GOMAXPROCS=$P go run ./cmd/apspload -selfhost -scenario "random-n${n}-s1" \
            -mix "$mix" -requests "$REQ" -concurrency 2 -seed 1 -json | tee -a "$RAW" >&2
        done
        # The same postupdate mix through a durable daemon (write-ahead
        # journal, fsync=interval): the delta against the in-memory
        # postupdate row above is the journaling overhead per acknowledged
        # update batch. The row is labeled by its "durability" field.
        DDIR="$(mktemp -d)"
        GOMAXPROCS=$P go run ./cmd/apspload -selfhost -data-dir "$DDIR" -fsync interval \
          -scenario "random-n${n}-s1" -mix postupdate -requests "$REQ_POSTUPDATE" \
          -concurrency 2 -seed 1 -json | tee -a "$RAW" >&2
        rm -rf "$DDIR"
      done
      [ "$FIRST" -eq 1 ] || printf ',\n'
      FIRST=0
      awk -v cores="$CORES" -v maxprocs="$P" '
        /^\{/ {
          if (count++) printf ",\n"
          printf "        %s", $0
        }
        BEGIN {
          printf "    {\n      \"suite\": \"serve\",\n      \"cores\": %s,\n      \"gomaxprocs\": %s,\n      \"results\": [\n", cores, maxprocs
        }
        END { printf "\n      ]\n    }" }
      ' "$RAW"
    done
    printf '\n  ]\n}\n'
  } > BENCH_serve.json
  echo "wrote BENCH_serve.json"
}

# The scenario-corpus sweep (EXPERIMENTS.json).
suite_experiments() {
  go run ./cmd/experiment \
    -scenarios random,ring,grid,layered,star,zeromix,powerlaw,geometric,expander,ktree \
    -sizes 64,128 -check -json EXPERIMENTS.json -q

  # Per-stage wall breakdown of the regenerated sweep: where the host time
  # goes inside the paper's pipeline, for each family's largest sequential
  # det43 cell (the staged executor records this per row; see DESIGN.md
  # §2.4/§6.3).
  if command -v jq >/dev/null 2>&1; then
    echo "per-stage wall breakdown (det43, seq, largest n per family):"
    jq -r '
      [.rows[] | select(.algorithm == "deterministic-n43" and .exec == "seq")]
      | group_by(.family)[] | max_by(.n)
      | "  \(.scenario): " + ([.stages[] | "\(.name | sub("^step[0-9]-"; ""))=\(.wall_ms)ms"] | join(" "))
    ' EXPERIMENTS.json
  fi
}

SUITES=(engine apsp stages update serve experiments)
if [ $# -gt 1 ]; then
  SUITES=("${@:2}")
fi
for suite in "${SUITES[@]}"; do
  if ! declare -F "suite_$suite" >/dev/null; then
    echo "bench.sh: unknown suite '$suite' (engine, apsp, stages, update, serve, experiments)" >&2
    exit 2
  fi
done
for suite in "${SUITES[@]}"; do
  "suite_$suite"
done
