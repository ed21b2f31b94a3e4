#!/usr/bin/env bash
# Builds the harness and ./cmd/reccd from the checkout this is run in, then
# runs the harness with the given flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# Every build output, Go cache and temporary file goes under .bench_build, so
# the run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C perfbench -o "$out/perfbench" .
go build -o "$out/reccd" ./cmd/reccd
exec "$out/perfbench" -reccd "$out/reccd" -work "$out" "$@"
