#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build writes (Go build
# cache, module cache, the binary, trace files) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOPROXY=off GOWORK=off
if ! HOME="$out/home" XDG_CONFIG_HOME="$out/home" go -C "$root/perfbench" build -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 1
fi
exec "$out/perfbench" -out "$out" "$@"
