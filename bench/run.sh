#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the checkout
# root (Go build cache included, so nothing is written outside the
# checkout) and runs it from the root with the arguments given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}" GOPATH="${GOPATH:-$build/gopath}" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/rckbench" .)
cd "$root"
exec "$build/rckbench" "$@"
