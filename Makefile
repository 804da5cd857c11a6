# FACC reproduction — convenience targets. Everything is plain `go` under
# the hood; the Makefile just names the common workflows.

GO ?= go

.PHONY: all build test test-short test-race fuzz-smoke chaos bench bench-layers bench-gate bench-smoke crash-matrix search-report serve-smoke fleet-smoke repro repro-full examples fmt lint vet check clean

all: build test

# Tier-1 gate: formatting + vet + tests + race detector + fuzz smoke +
# the store crash matrix (a simulated crash at every log append, fsync,
# truncate and rename must recover consistently) + the faccd serve smoke
# (compile over HTTP, SIGTERM drain, crash-safe store recovery, trace-ID
# join) + the fleet smoke (3 sharded replicas, kill -9 the digest's
# owner mid-compile, survivors must rebalance and serve byte-identical
# adapters) + the bench gate (fresh per-layer, corpus and fleet medians
# vs the committed BENCH_layers.json) + the benchmark smoke (every
# workload of BENCHMARK.json briefly, outputs checked against
# benchmark/golden.json).
check: lint test test-race fuzz-smoke crash-matrix serve-smoke fleet-smoke bench-gate bench-smoke

build:
	$(GO) build ./...

# Bounded timeout: a hung test is a robustness bug, not a slow machine —
# fail it rather than letting CI stall.
test:
	$(GO) test -timeout 240s ./...

test-short:
	$(GO) test -short -timeout 120s ./...

# The race run carries the full differential + determinism suites (every
# corpus program × every target, twice), so it gets a wider budget than
# the plain run; a hang still fails well before CI gives up.
test-race:
	$(GO) test -race -timeout 600s ./...

# Fuzz smoke: replay the committed corpus, then a short randomized run of
# each fuzz target (parser round-trip totality, interpreter
# fault-not-panic, store log frame scanner refuse-not-panic with accepted
# frames re-encoding to themselves, store entry record decoder
# strictness: accepted bytes re-encode to themselves).
fuzz-smoke:
	$(GO) test ./internal/minic -run '^$$' -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/interp -run '^$$' -fuzz FuzzInterp -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzStoreDecode -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzEntryDecode -fuzztime 10s

# Crash-point injection matrix: the adapter store is crashed at every
# durable operation (log appends, fsyncs, the torn-tail truncate of a
# restart, the compaction rename) under clean/torn/bit-flip semantics and must
# recover to a consistent state every time. CRASH_OUT keeps the report
# and the quarantine evidence for CI artifact upload.
crash-matrix:
	./scripts/crash_matrix.sh

# Fault-tolerance suite under the race detector: the chaos tests (a
# compile's deadlines and the fleet chaos scenario), the store's circuit
# breaker, the Retry-After of shed and forwarded 429s, panic isolation,
# interpreter fuel and stack limits, deadline/cancellation plumbing.
chaos:
	$(GO) test -race -timeout 120s -run 'Chaos|Retry|Breaker|Panic|Fuel|StackOverflow|Cancel' ./...

# One testing.B benchmark per paper table/figure plus ablations and the
# fixed cost of an oracle-hit compile (BenchmarkCompileOracleHit), then
# the per-layer benchmarks of input generation and case digests (fresh
# vs memoized), the device models, binding enumeration, the daemon's
# cache hit and fresh-digest compile over an HTTP round trip, and the
# adapter store's Get and Put (one frame append and fsync) on a log of
# 3000 real-size entries (BenchmarkStoreGet, BenchmarkStorePut).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x ./internal/iogen ./internal/accel ./internal/binding ./internal/server ./internal/store

# Search observatory: one exhaustive sequential corpus compile with kill
# attribution on. Prints the funnel, kill-depth distribution and top
# discriminating inputs.
search-report:
	$(GO) run ./cmd/faccbench -experiment searchbench

# End-to-end daemon smoke: build faccd, compile over HTTP, SIGTERM with a
# request in flight, tear the cached adapter, restart and assert the
# store quarantines + recompiles + serves byte-identical bytes, then
# assert one trace ID joins the response header, the journal export and
# the /debug/requests flight record.
serve-smoke:
	./scripts/serve_smoke.sh

# Fleet smoke: stand up a 3-replica faccd fleet over a static peer
# table, compile through it, kill -9 the replica that owns the digest
# while a second compile is in flight, and assert the survivors eject
# the dead peer within the probe budget, finish the in-flight request
# via failover, and serve byte-identical adapter bytes for the dead
# owner's digest.
fleet-smoke:
	./scripts/fleet_smoke.sh

# The bench gate's baseline: every gated median (the traced benchmark's
# per-layer metrics over five runs of all four workloads, and five runs
# each of BenchmarkSynthCorpus and BenchmarkFleetChaos), measured on this
# host and written to BENCH_layers.json. Regenerate it after an intended
# change to a count or a timing, on the host shape the gate runs on.
bench-layers:
	mkdir -p .bench_build
	./scripts/bench_layers.sh > .bench_build/BENCH_layers.json
	mv .bench_build/BENCH_layers.json BENCH_layers.json

# Performance regression gate: measure a fresh BENCH_layers.json and
# compare it against the committed one. Counts must match exactly; each
# timing's median may move by its tolerance (three times its committed
# spread, at least 25%); the corpus speedup must reach 1.0 on two or
# more cores. GATE_OUT keeps the fresh medians.
bench-gate:
	./scripts/bench_gate.sh

# Benchmark smoke: every workload for 1 s, untraced and traced, on a
# three-program slice of the corpus; every declared metric must be
# printed and every adapter must match benchmark/golden.json. The
# benchmark is its own module, so `go test ./...` above does not run it.
bench-smoke:
	cd benchmark && $(GO) test ./...

# Regenerate the paper's evaluation (Table 1 + Figures 8-16 + ablations).
repro:
	$(GO) run ./cmd/faccbench

# Paper-size classifier protocol for Figure 11 (slow).
repro-full:
	$(GO) run ./cmd/faccbench -experiment fig11 -full

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/embedded
	$(GO) run ./examples/library
	$(GO) run ./examples/classifier
	$(GO) run ./examples/migration

fmt:
	gofmt -w .

# Fails when any file needs gofmt, then vets.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
