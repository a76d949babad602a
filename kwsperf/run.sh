#!/usr/bin/env bash
# Builds the kwsperf harness from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash kwsperf/run.sh --workload stream-incremental --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, temp files) stays under
# .bench_build/ in the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gomodcache"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$here" && go build -o "$out/kwsperf" .)
cd "$root"
exec "$out/kwsperf" "$@"
