#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-300 --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, the go command's own state (GOPATH,
# config and telemetry directories) and the traced run's spans all stay
# under .bench_build/ in the repository root. The build fails, and the
# script exits non-zero without a result, when the repository's sources are
# not beside perfbench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
