#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every file the build writes (Go build cache, temporary files, toolchain
# config and the binary) stays under .bench_build/ at the checkout root, and
# nothing is fetched from the network: the benchmark module replaces the
# nocbt module with the checkout itself.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/bench" && go build -o "$build/nocbt-bench" .)
cd "$root"
exec "$build/nocbt-bench" "$@"
