#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it. Run it from the root
# of a checkout; every flag is passed on to the benchmark:
#
#   bash bench/run.sh --workload warm-slots --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the checkout, so the first run builds everything and
# later runs reuse the cache.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -trimpath -o "$build/see-bench" .
exec "$build/see-bench" "$@"
