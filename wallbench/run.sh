#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash wallbench/run.sh --workload oneshot-social --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  The build cache, the binary and every
# file a traced run writes stay under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

go -C "$root/wallbench" build -o "$out/wallbench" .
exec "$out/wallbench" --out "$out/wallbench-out" "$@"
