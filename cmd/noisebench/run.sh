#!/usr/bin/env bash
# Builds noisebench from the checkout this is run in and runs it with
# the given arguments, e.g.
#
#   bash cmd/noisebench/run.sh --workload batch-exhaustive --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, temporary build
# files and the binary all stay under .bench_build/ in the checkout, and
# the build never reaches the network.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The go command keeps its env file and telemetry counters under the
# user config directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/cmd/noisebench" && go build -o "$build/bin/noisebench" .)
exec "$build/bin/noisebench" "$@"
