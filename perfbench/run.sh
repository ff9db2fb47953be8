#!/usr/bin/env bash
# Builds ascsd and the perfbench program from the checkout it is run in,
# then performs one benchmark run. Run from the repository root:
#
#	bash perfbench/run.sh --workload dense-ingest --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, daemon logs and span traces all stay
# under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ascsd" || ! -f "$root/perfbench/workloads.json" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ascsd and perfbench/workloads.json are required)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry counters in
# the build directory too.
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go build -o "$out/bin/ascsd" ./cmd/ascsd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/ascsd" -config perfbench/workloads.json -work "$out/work" "$@"
