#!/bin/sh
# bench_gate.sh — the performance regression gate.
#
# Measures a fresh BENCH_layers.json on this machine with
# scripts/bench_layers.sh, then compares it against the committed one with
# `go run ./cmd/benchgate`: a count that changes, a timing whose median
# moves past its tolerance in the worse direction, a corpus speedup under
# 1.0 on two or more cores, or a metric that is missing fails the build.
#
# Environment:
#   GATE_OUT   directory for the fresh BENCH_layers.json (default a
#              tmpdir; CI points this at its artifact upload path)
#
# Needs only POSIX sh + the Go toolchain. Run from the repo root:
#     ./scripts/bench_gate.sh
set -eu

OUT="${GATE_OUT:-}"
if [ -z "$OUT" ]; then
    OUT=$(mktemp -d)
    trap 'rm -rf "$OUT"' EXIT INT TERM
else
    mkdir -p "$OUT"
fi

[ -f BENCH_layers.json ] || { echo "bench-gate: no committed BENCH_layers.json"; exit 1; }

./scripts/bench_layers.sh > "$OUT/BENCH_layers.json"
echo "bench-gate: comparing against the committed BENCH_layers.json"
go run ./cmd/benchgate BENCH_layers.json "$OUT/BENCH_layers.json"
echo "bench-gate: OK (fresh medians in $OUT/BENCH_layers.json)"
