#!/usr/bin/env bash
# Builds orbbench from source and runs it. Run from the root of a zcorba
# checkout, e.g.
#
#   bash orbbench/run.sh --workload rpc_small --seed 1 --seconds 10 --trace 0
#
# The binary and every Go cache stay under .bench_build/ in the
# checkout. Outside a checkout (no zcorba module next to orbbench/) the
# build fails and the script exits non-zero without a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
go -C orbbench build -o "$out/orbbench" . >&2
exec "$out/orbbench" "$@"
