#!/usr/bin/env bash
# Builds the service benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload cold-mine --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays under .bench_build/ at the
# repository root. The build fails, and so does the run, outside a full
# checkout: perfbench/go.mod takes the regcluster module from the parent
# directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
