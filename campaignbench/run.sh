#!/usr/bin/env bash
# Builds campaignbench from the checkout it runs in and runs it with the
# given arguments. Run from the repository root:
#
#   bash campaignbench/run.sh --workload boom-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the runs' scratch state.
set -euo pipefail

if [[ ! -f go.mod || ! -d campaignbench ]]; then
	echo "campaignbench: run from the repository root" >&2
	exit 2
fi

root=$PWD
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=vendor
export CGO_ENABLED=0

go build -o "$build/bin/campaignbench" ./campaignbench
exec "$build/bin/campaignbench" "$@"
