#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload eu-dense --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build product (binary, Go build
# cache, temporary files) stays under .bench_build/ in the current
# directory. A tree without the repository's sources fails to build, and
# the script then exits non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$(pwd)/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

export PERFBENCH_OUT="$out"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
