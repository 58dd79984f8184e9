#!/usr/bin/env bash
# Builds the end-to-end reconnect benchmark from source and runs it with
# the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload sync-small --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh --workload all --seed 1 --seconds 10
#
# Every file it writes (Go build cache, binary, the durable tier's data
# directories) stays under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

bin="$out/e2ebench"
tmpbin="$out/e2ebench.$$"
(cd "$here" && go build -o "$tmpbin" .) || { rm -f "$tmpbin"; exit 1; }
mv -f "$tmpbin" "$bin"
exec "$bin" -data "$out" "$@"
