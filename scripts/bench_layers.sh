#!/bin/sh
# bench_layers.sh — measure every number the bench gate holds and print
# it as a BENCH_layers.json document on standard output.
#
# Two measurements, folded by `go run ./cmd/benchgate`:
#   - the benchmark's traced run, five times over all four workloads:
#     each per-layer metric's median and quartiles, and the host's nproc
#     and GOMAXPROCS. Every corpus program is named with -programs, so the
#     traced runs write their CPU profiles under .bench_build/traces and
#     leave the committed benchmark/profiles/ alone;
#   - the Go benchmarks that time what no workload measures, five times
#     each: BenchmarkSynthCorpus (the supported corpus at Workers=1 and
#     Workers=GOMAXPROCS, and the speedup) and BenchmarkFleetChaos (the
#     fleet chaos run's wall time and p99).
#
# Needs only POSIX sh + the Go toolchain. Run from the repo root:
#     ./scripts/bench_layers.sh > BENCH_layers.json
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

progs=$(sed -n 's/.*"program": *"\([^"]*\)".*/\1/p' benchmark/golden.json | sort -u | paste -sd, -)
echo "bench-layers: traced benchmark, 5 runs of all four workloads" >&2
# A failed output (a wrong adapter, a refused request) fails the run; its
# report then goes to stderr, since standard output is the document.
sh benchmark/run.sh --trace 1 --runs 5 --seconds 2 --programs "$progs" > "$tmp/measured.txt" ||
    { cat "$tmp/measured.txt" >&2; exit 1; }
echo "bench-layers: corpus and fleet chaos Go benchmarks, 5 runs each" >&2
go test -run '^$' -bench '^(BenchmarkSynthCorpus|BenchmarkFleetChaos)$' \
    -benchtime 1x -count 5 ./internal/eval >> "$tmp/measured.txt"
go run ./cmd/benchgate < "$tmp/measured.txt"
