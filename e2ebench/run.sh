#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs it
# with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload flow_cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
