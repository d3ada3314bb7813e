#!/usr/bin/env bash
# Builds the SDF benchmark from source and runs it. Usage, from the
# repository root:
#
#   bash perfbench/run.sh --workload kv-read --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the traced run's span file all
# stay under .bench_build/ in the repository root (CARGO_TARGET_DIR, when
# set, names that directory instead). The last line of standard output
# is the JSON result; see perfbench/README.md.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home" "$out/tmp"

# Keep every file the Go toolchain touches inside the build directory,
# never fetch a toolchain or module, and build the stdlib-only module
# offline.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
