#!/usr/bin/env bash
# Builds the benchmark from source and runs it, reading and writing only
# inside the checkout: the binary, Go's build cache, the toolchain's own
# telemetry counters and the runs' scratch (WAL directories) all live under
# <checkout>/.bench_build. Arguments are passed through; see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gotmp" "$build/tmp"
# The go command keeps its counters under the user's config directory; move
# that inside the checkout, but keep reading the user's go env file.
export GOENV="${GOENV:-${XDG_CONFIG_HOME:-${HOME-}/.config}/go/env}" XDG_CONFIG_HOME="$build/config"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTMPDIR="$build/gotmp" BENCH_TMP="$build/tmp"
(cd "$here" && go build -buildvcs=false -o "$build/raincore-bench" .)
exec "$build/raincore-bench" "$@"
