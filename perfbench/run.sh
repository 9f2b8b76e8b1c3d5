#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload ingest-bin --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. The build cache, the binary and
# the traced runs' span files go under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout. The build needs the repository's own Go
# sources next to this directory; without them it fails and nothing runs.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -spans "$out/spans" "$@"
