#!/usr/bin/env bash
# check_alloc_budget.sh — allocation regression gate for the hot paths.
#
# scripts/alloc_budget.txt holds one "<benchmark-pattern> <budget>
# [package]" entry per gated hot path (the package defaults to the root
# package "."); for each entry this script runs the benchmark with
# -benchmem and fails when allocs/op exceeds the budget by more than the
# slack (default 20%). Allocation counts — unlike wall-clock time — are
# exact and machine-independent for a deterministic benchmark, so a tight
# gate is safe on shared CI runners where ns/op would be pure noise.
#
# Usage: scripts/check_alloc_budget.sh [slack_percent]
set -euo pipefail

cd "$(dirname "$0")/.."

slack="${1:-20}"
fail=0

while read -r bench budget pkg; do
  case "$bench" in ''|\#*) continue ;; esac

  out="$(go test -run '^$' -bench "${bench}\$" -benchmem -benchtime 5x -timeout 10m "${pkg:-.}")"
  echo "$out"

  allocs="$(echo "$out" | awk -v b="$bench" \
    'index($1, b) {for (i=1; i<NF; i++) if ($(i+1) == "allocs/op") print $i}' | head -n1)"
  if [ -z "$allocs" ]; then
    echo "check_alloc_budget: could not parse allocs/op for $bench" >&2
    exit 2
  fi

  limit=$(( budget + budget * slack / 100 ))
  echo "$bench: allocs/op $allocs (budget $budget, limit $limit = +${slack}%)"
  if [ "$allocs" -gt "$limit" ]; then
    echo "check_alloc_budget: FAIL — $bench allocs/op regressed past the budget." >&2
    fail=1
  fi
done < scripts/alloc_budget.txt

if [ "$fail" -ne 0 ]; then
  echo "If a regression is intentional, re-measure and update scripts/alloc_budget.txt." >&2
  exit 1
fi
echo "check_alloc_budget: OK"
