#!/usr/bin/env bash
# Builds docs-server and the perfbench binary from the checkout it is run
# in, then runs perfbench. Run it from the repository root:
#
#   bash perfbench/run.sh --workload grow --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: the Go
# build and module caches, the toolchain's scratch files and telemetry
# counters, the binaries, and the server data directories.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go build -o "$out/docs-server" ./cmd/docs-server >&2
(cd perfbench && go build -o "$out/perfbench" ./cmd/perfbench) >&2
exec "$out/perfbench" -server "$out/docs-server" -workdir "$out/runs" "$@"
