#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Every build product (Go build
# cache, temporary files, the benchmark binary) and every trace file stays
# under .bench_build/ in that checkout. Without the repository's Go
# module beside perfbench/ the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export GOTELEMETRY=off GOENV=off

# HOME and XDG_CONFIG_HOME keep the toolchain's own config and telemetry
# files inside the checkout too.
(cd "$root/perfbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
