#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#   bash perfbench/run.sh --workload groups --seed 1 --seconds 10 --trace 0
# Every build and run artifact stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a gasf checkout (go.mod and perfbench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
