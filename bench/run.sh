#!/usr/bin/env bash
# Builds the end-to-end benchmark from source inside the checkout and runs
# it with the arguments given (see bench/README.md):
#
#   bash bench/run.sh --workload job_lifecycle --seed 7 --seconds 16 --trace 0
#
# Everything the build leaves behind — Go's build cache included — goes to
# .bench_build/ at the root of the checkout, so nothing outside the
# checkout is read or written. Without the program's sources (a directory
# holding only BENCHMARK.json and bench/) the build, and so this script,
# fails.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export XDG_CONFIG_HOME="$build/config" # Go's telemetry counters land here
export GOTOOLCHAIN=local
# A checkout that is not a git repository has no revision to stamp; one
# that is but cannot run git must not fail the build over it.
go build -o "$build/e2e" ./bench/e2e 2>/dev/null ||
	go build -buildvcs=false -o "$build/e2e" ./bench/e2e
exec "$build/e2e" "$@"
