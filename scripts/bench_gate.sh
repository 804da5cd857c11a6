#!/bin/sh
# bench_gate.sh — the performance regression gate.
#
# Measures fresh synthesis and serving benchmarks on this machine, then
# compares them against the committed BENCH_synth.json / BENCH_serve.json
# baselines with `faccbench -experiment benchgate`: a wall-time or
# waste-ratio regression beyond the tolerance fails the build.
#
# Environment:
#   GATE_TOLERANCE   allowed fractional regression (default 0.25 = 25%)
#   GATE_OUT         directory for the fresh artifacts (default a tmpdir;
#                    CI points this at its artifact upload path)
#
# Needs only POSIX sh + the Go toolchain. Run from the repo root:
#     ./scripts/bench_gate.sh
set -eu

TOL="${GATE_TOLERANCE:-0.25}"
OUT="${GATE_OUT:-}"
if [ -z "$OUT" ]; then
    OUT=$(mktemp -d)
    trap 'rm -rf "$OUT"' EXIT INT TERM
else
    mkdir -p "$OUT"
fi

[ -f BENCH_synth.json ] || { echo "bench-gate: no committed BENCH_synth.json baseline"; exit 1; }
[ -f BENCH_serve.json ] || { echo "bench-gate: no committed BENCH_serve.json baseline"; exit 1; }

# The fresh synthesis run also feeds the search observatory: the
# sequential run's kill attribution goes into the artifact's "search"
# section (gated below against the baseline's).
# -j 4 forces the Workers=4 run even on 1-core machines: the gate's
# ROADMAP floors (Workers=N wall vs Workers=1, cross-target oracle hit
# rate) read the fresh artifact, so it must always carry both runs.
echo "bench-gate: measuring fresh synthesis benchmark"
go run ./cmd/faccbench -experiment synthbench -j 4 \
    -bench-out "$OUT/BENCH_synth.json" > "$OUT/synth.txt"
echo "bench-gate: measuring fresh serving benchmark"
go run ./cmd/faccbench -experiment servebench -bench-out "$OUT/BENCH_serve.json" > "$OUT/serve.txt"

echo "bench-gate: comparing against committed baselines (tolerance $TOL)"
go run ./cmd/faccbench -experiment benchgate \
    -gate-tolerance "$TOL" \
    -gate-synth "BENCH_synth.json:$OUT/BENCH_synth.json" \
    -gate-serve "BENCH_serve.json:$OUT/BENCH_serve.json"

echo "bench-gate: OK (fresh artifacts in $OUT)"
