#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given,
# from the root of the checkout. Everything the Go tool writes (build
# cache, temporary files, its own configuration) is kept under
# .bench_build/ in the checkout; nothing is fetched, and no process
# outlives this script.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program to measure is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# With telemetry in its default "local" mode the go command leaves a
# detached "go ** telemetry **" sidecar behind, once per configuration
# directory and day, and this directory is new in every checkout.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
