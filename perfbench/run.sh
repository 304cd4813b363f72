#!/usr/bin/env bash
# Builds the layered benchmark from the sources of the checkout it is run
# from, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run write —
# the Go build cache, the binary, spill files and span dumps — stays under
# the build directory ($CARGO_TARGET_DIR, default .bench_build), so a run
# touches nothing outside the checkout but the Go toolchain it reads.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --scratch "$build/scratch" "$@"
