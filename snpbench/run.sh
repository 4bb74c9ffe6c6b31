#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash snpbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary, temporary logs, spans and
# saved results) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/snpbench/go.mod" ]; then
	echo "snpbench: run from the repository root (needs go.mod and snpbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export TMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/snpbench" && go build -trimpath -o "$out/snpbench" .)
exec "$out/snpbench" "$@"
