#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#	bash perfbench/run.sh --workload paper-rows --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, traces,
# profiles) stays under .bench_build/ in the repository root. See
# perfbench/README.md for the workloads, metrics and modes.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: $root is not a checkout of the repository (no go.mod or internal/)" >&2
	exit 2
fi
command -v go >/dev/null || { echo "perfbench: the go toolchain is not on PATH" >&2; exit 2; }

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -repo "$root" -out "$build/perfbench-out" "$@"
