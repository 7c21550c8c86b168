#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs one workload:
#
#   bash perfbench/run.sh --workload cold-large|dense-fold \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache and
# run scratch files go to .bench_build/ there.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
