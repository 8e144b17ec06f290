#!/usr/bin/env bash
# golines.sh — Go line counts outside perfbench/, split into non-test code
# and tests (*_test.go): the net-lines figure each change reports.
#
#   scripts/golines.sh             line counts at HEAD
#   scripts/golines.sh <base-rev>  also the lines added and removed from
#                                  base-rev to HEAD, and the net change
#
# Counts come from committed trees, so uncommitted edits are not seen. The
# script only prints; it never fails on what it counts.
set -euo pipefail
cd "$(dirname "$0")/.."

pathspec=(-- '*.go' ':(exclude)perfbench/')

git grep -c '' HEAD "${pathspec[@]}" | awk -F: '
  { if ($2 ~ /_test\.go$/) test += $3; else code += $3 }
  END { printf "HEAD: non-test %d lines, test %d lines\n", code, test }'

if [ $# -gt 0 ]; then
  git diff --numstat --no-renames "$1" HEAD "${pathspec[@]}" | awk -v base="$1" '
    { k = ($3 ~ /_test\.go$/) ? "test" : "non-test"; add[k] += $1; del[k] += $2 }
    END {
      split("non-test test", kinds, " ")
      for (i = 1; i <= 2; i++) {
        k = kinds[i]
        printf "%s..HEAD: %s +%d/-%d (net %+d)\n", base, k, add[k], del[k], add[k] - del[k]
      }
    }'
fi
