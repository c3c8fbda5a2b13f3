#!/usr/bin/env bash
# Builds the production-path benchmark from this checkout's sources and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload s2s-drain --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# checkpoint directories, span files) stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

# Keep the toolchain offline and inside the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
mkdir -p "$GOTMPDIR"

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build/work" "$@"
