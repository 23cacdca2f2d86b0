#!/usr/bin/env bash
# Builds the benchmark command from source and runs it with the given
# arguments, from the root of a checkout of the repository. Everything the
# build and the run leave behind stays under .bench_build/ and
# benchmark/results/ in the checkout: the Go build cache, the binary, the
# replicas' data directories and the trace files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

# The benchmark is its own module that imports the repository's packages;
# without the repository around it there is nothing to measure.
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: $root is not a checkout of the repository (no go.mod)" >&2
	exit 3
fi
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS="-mod=mod -buildvcs=false"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/fastbft-benchmark" .)
cd "$root"
exec "$build/fastbft-benchmark" "$@"
