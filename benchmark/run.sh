#!/bin/sh
# Builds the FACC benchmark and runs it with the given flags, e.g.
#
#   sh benchmark/run.sh --workload cli-cold --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes goes under .bench_build/ in the repository
# root: the Go build cache, the benchmark binary, the facc and faccd
# binaries, scratch stores and traces. Only benchmark/profiles/ is written
# inside the tree (by traced runs).
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -f benchmark/go.mod ]; then
	echo "benchmark: $root is not a facc checkout (go.mod missing)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$build/faccbench" .)
exec "$build/faccbench" "$@"
