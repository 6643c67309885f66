#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark and the sgbd it
# drives from the checkout's sources into .bench_build/ (compile time is not
# part of any metric), then runs the benchmark with the caller's arguments.
# Everything Go writes — build cache, module cache, telemetry — is redirected
# into .bench_build/ so a run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(
	cd "$here"
	go build -o "$build/bin/benchmark" .
	go build -o "$build/bin/sgbd" sgb/cmd/sgbd
)
exec "$build/bin/benchmark" -sgbd "$build/bin/sgbd" -tmp "$build/tmp" "$@"
