#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload replay-small --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --seed 1        # every workload, one after another
#   bash perfbench/run.sh compare -parent DIR -change DIR -json out.json -md out.md
#
# The build cache, the toolchain's temporary and configuration files and
# the binary stay inside the checkout, under .bench_build. Outside a full
# checkout the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOFLAGS="-mod=readonly -buildvcs=false" GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
