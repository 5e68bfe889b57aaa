#!/usr/bin/env bash
# Builds the ledger benchmark from source and runs it with the given flags,
# for example:
#
#   bash ledger/run.sh --workload intra --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, the compiler's temporary files and the
# go command's own configuration and telemetry all live under .bench_build/
# at the root of the checkout, so a run reads and writes nothing outside
# it. The first run compiles the standard library into that cache; later
# runs only check it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$here" build -o "$out/drgpum-ledger" .
exec "$out/drgpum-ledger" "$@"
