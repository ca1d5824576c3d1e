#!/usr/bin/env bash
# Builds the benchmark from source inside this checkout and runs it:
#
#   bash perfbench/run.sh --workload grow|paper|serve --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare BASE.jsonl NEW.jsonl
#
# Run from the repository root.  Build outputs, the Go build cache,
# traces and the results ledger all go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomodcache
export GOTMPDIR=$out/tmp
mkdir -p "$GOTMPDIR"
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export PERFBENCH_OUT=$out

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
