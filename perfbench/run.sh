#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload point_param --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# binary, work directories, span dumps) stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOFLAGS="-mod=mod"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
