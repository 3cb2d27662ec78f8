#!/usr/bin/env bash
# Builds formserve and the benchmark from this checkout's sources, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash benchmark/run.sh --workload crawl --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go's build cache included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/formserve" ]; then
	echo "benchmark/run.sh: run from the formext repository root (no go.mod or cmd/formserve here)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" HOME="$out/home"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=

go build -o "$out/bin/formserve" ./cmd/formserve
(cd "$root/benchmark" && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" -formserve "$out/bin/formserve" -out "$out" "$@"
