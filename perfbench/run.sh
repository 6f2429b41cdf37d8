#!/usr/bin/env bash
# Builds the benchmark harness and the binaries it drives from the
# checkout's sources, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload mem_default_text --seed 1 --seconds 60 --trace 0
#
# Everything it writes (build cache, binaries, outputs, run records)
# goes under $CARGO_TARGET_DIR, default .bench_build, in the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/work" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/bin/perfbench" . &&
	go build -o "$out/bin/" pagen/cmd/pagen pagen/cmd/pa-serve pagen/cmd/pa-tcp) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out/work" "$@"
