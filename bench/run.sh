#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (the Go build cache lives there too, so nothing is written
# outside the checkout) and runs it from that root with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
# The commit goes into the result header; a checkout that is not a git
# repository reports "unknown".
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
go build -C "$here" -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$build/softmem-bench" .
cd "$root"
exec "$build/softmem-bench" "$@"
