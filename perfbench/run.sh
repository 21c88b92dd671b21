#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload batch-ftth --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch files all live
# under $CARGO_TARGET_DIR (default .bench_build), so a run reads and writes
# nothing outside the checkout besides the Go toolchain itself.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gotmp"
# The Go command's caches, module path and its telemetry and env files
# (under XDG_CONFIG_HOME) go there too.
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench.bin" .)
exec "$build/perfbench.bin" -workdir "$build" "$@"
