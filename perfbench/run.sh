#!/usr/bin/env bash
# Builds the benchmark and quicknnd from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload drive_incremental --seed 1 --seconds 20 --trace 0
#
# Everything it builds or caches stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/quicknnd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a quicknn checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
# Keep the go command's cache, temporary files and config (telemetry
# included) inside the checkout, and never reach for the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
go build -o "$build/bin/quicknnd" ./cmd/quicknnd
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --quicknnd "$build/bin/quicknnd" --work-dir "$build/perfbench" "$@"
