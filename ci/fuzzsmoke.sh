#!/bin/sh
# fuzzsmoke: run each native Go fuzz target for a short burst on top
# of its committed seed corpus (testdata/fuzz/).  `go test` alone only
# replays the committed corpus; this actually mutates for FUZZTIME per
# target, so CI keeps shaking the decoders with fresh inputs.
#
# Run from the repository root: sh ci/fuzzsmoke.sh
set -eu

FUZZTIME=${FUZZTIME:-10s}

run() {
  pkg=$1
  target=$2
  echo "fuzzsmoke: $target ($pkg, $FUZZTIME)"
  go test -run '^$' -fuzz "^$target\$" -fuzztime "$FUZZTIME" "$pkg"
}

run ./internal/san FuzzSANText
run ./internal/snapstore FuzzDecodeSnapshot
run ./internal/snapstore FuzzDecodeTimeline
run ./internal/scenario FuzzManifest
run ./internal/gplus FuzzReadSimulator

echo "fuzzsmoke: OK"
