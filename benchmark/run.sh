#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run read and write stays under
# .bench_build/ in the checkout: the Go build cache, module cache and
# the go command's own configuration (HOME), the binary, the data
# directories the topologies fsync into with the Unix sockets their
# parts talk over, and the spans of traced runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOENV=off GOTELEMETRY=off
(cd "$here" && go build -o "$build/loki-benchmark" .)
# A fresh build leaves a few hundred MB of dirty pages on the device the
# run is about to time fsyncs on; write them out first. Nearly free when
# nothing was rebuilt.
sync -f "$build" 2>/dev/null || true
# The run names its files by paths relative to the checkout, which keeps
# its socket addresses short wherever the checkout is.
cd "$root"
exec "$build/loki-benchmark" "$@"
