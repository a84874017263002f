#!/usr/bin/env bash
# Builds ocqa, ocqad and the benchmark from the checkout it is run in, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload answer-exact --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout: binaries, Go build cache, and the
# per-run scratch inputs.
set -euo pipefail

root=$(pwd)
for need in go.mod cmd/ocqa cmd/ocqad perfbench/go.mod; do
	if [ ! -e "$need" ]; then
		echo "perfbench: $need not found; run from the repository root" >&2
		exit 1
	fi
done
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/home/go/telemetry" "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export HOME=$out/home XDG_CONFIG_HOME=$out/home GOPATH=$out/home/go
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# In its default mode, go telemetry lets every go command start a detached
# upload process that outlives it. The go command reads the mode only from
# this file under the config directory, so turn it off there.
echo "off" >"$out/home/go/telemetry/mode"

go build -o "$out/ocqa" ./cmd/ocqa
go build -o "$out/ocqad" ./cmd/ocqad
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out" "$@"
