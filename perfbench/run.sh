#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments, from the root of the checkout. Every build artifact, Go
# cache and scratch file stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command's env file and telemetry counters
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
