#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json's command): builds the benchmark from
# source inside the checkout, then runs it with the arguments given.
# Everything the go command writes — build cache, temporary files, module
# cache, its telemetry counters — is pointed under .bench_build at the
# checkout root, so nothing lands outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
	go build -o "$build/vdm-benchmark" .
)
cd "$root"
exec "$build/vdm-benchmark" "$@"
