#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload exec-fine --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, the binary, the traced run's spans) goes under
# .bench_build in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
