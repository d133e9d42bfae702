#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch files all stay under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/gopath"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local PERFBENCH_STATE=$out

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
