#!/usr/bin/env bash
# Launcher for the benchmark spine: builds the benchspine module (a nested
# Go module that imports the product through a relative replace) and runs
# it. Everything the toolchain writes — build cache, temp files, telemetry —
# is kept under .bench_build in the checkout, so a run touches nothing
# outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-buildvcs=false GOWORK=off
(cd "$here" && go build -o "$build/benchspine" .)
cd "$root"
exec "$build/benchspine" "$@"
