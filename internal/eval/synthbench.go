package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"runtime"
	"sort"
	"time"

	"facc/internal/accel"
	"facc/internal/bench"
	"facc/internal/core"
	"facc/internal/obs"
	"facc/internal/synth"
)

// SynthBenchRun is one measured compile of the whole supported corpus at
// a fixed candidate-worker count.
type SynthBenchRun struct {
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`

	Adapters         int   `json:"adapters"`
	CandidatesTested int64 `json:"candidates_tested"`
	TestsRun         int64 `json:"tests_run"`
	// TestsPerSec is the generate-and-test engine's throughput: IO
	// examples checked per wall-clock second across the whole corpus.
	TestsPerSec float64 `json:"tests_per_sec"`

	OracleHits    int64   `json:"oracle_hits"`
	OracleMisses  int64   `json:"oracle_misses"`
	OracleHitRate float64 `json:"oracle_hit_rate"`

	// Cost-ledger attribution: where the interpreter work went. Useful
	// tests ran on candidates that won; speculative tests ran on losers,
	// including the cases a parallel run started past a loser's kill.
	// WasteRatio = speculative / (useful + speculative).
	UsefulTests      int64   `json:"useful_tests"`
	SpeculativeTests int64   `json:"speculative_tests"`
	WasteRatio       float64 `json:"waste_ratio"`
	// WinnerOracleHits counts reference-run cache hits charged to winning
	// candidates: reference runs an earlier candidate or target of the
	// same program already paid for. See Exhaustive for the controlled
	// cache-effectiveness number.
	WinnerOracleHits int64 `json:"winner_oracle_hits"`

	// PerTarget splits the oracle and waste numbers by accelerator.
	PerTarget []SynthBenchRunTarget `json:"per_target"`
}

// SynthBenchRunTarget is one accelerator's slice of a run's oracle and
// cost-ledger statistics.
type SynthBenchRunTarget struct {
	Target           string  `json:"target"`
	OracleHits       int64   `json:"oracle_hits"`
	OracleMisses     int64   `json:"oracle_misses"`
	OracleHitRate    float64 `json:"oracle_hit_rate"`
	UsefulTests      int64   `json:"useful_tests"`
	SpeculativeTests int64   `json:"speculative_tests"`
	WasteRatio       float64 `json:"waste_ratio"`
}

// SynthBenchExhaustive measures oracle-cache effectiveness with every
// candidate tested (ExhaustAll), where reference-run sharing is the
// norm rather than an accident of where the search stops. Functions
// with a single surviving hypothesis can never hit the cache, so the
// headline number is the hit rate restricted to multi-candidate
// functions.
type SynthBenchExhaustive struct {
	Workers          int     `json:"workers"`
	WallSeconds      float64 `json:"wall_seconds"`
	CandidatesTested int64   `json:"candidates_tested"`
	OracleHits       int64   `json:"oracle_hits"`
	OracleMisses     int64   `json:"oracle_misses"`
	OracleHitRate    float64 `json:"oracle_hit_rate"`

	MultiCandidateFunctions int     `json:"multi_candidate_functions"`
	MultiCandidateHits      int64   `json:"multi_candidate_hits"`
	MultiCandidateMisses    int64   `json:"multi_candidate_misses"`
	MultiCandidateHitRate   float64 `json:"multi_candidate_hit_rate"`

	// PerTarget splits the multi-candidate numbers by accelerator.
	// Sharing concentrates where the API has accelerator-side knobs
	// (FFTW's direction/flags): those candidates differ only in
	// constants invisible to the user program, so their reference runs
	// coincide — and, since oracle keys are target-independent, where
	// another target already interpreted the same reference run.
	PerTarget []SynthBenchExhaustiveTarget `json:"per_target"`

	// CrossTarget measures what target-independent oracle keys buy:
	// each benchmark's ffta+powerquad+fftw compiles share one cache, so
	// a reference run interpreted for one target is a free hit for the
	// other two. The headline is the hit rate over benchmarks that
	// fuzzed at least two candidates across the three targets — gated
	// >50% by BenchGate (three lookups per shared run bound it near
	// 2/3 when size pools align across specs).
	CrossTarget *SynthBenchCrossTarget `json:"cross_target,omitempty"`
}

// SynthBenchCrossTarget aggregates shared-oracle effectiveness across
// targets: one cache per benchmark, spanning its ffta+powerquad+fftw
// compiles.
type SynthBenchCrossTarget struct {
	Benchmarks               int     `json:"benchmarks"`
	MultiCandidateBenchmarks int     `json:"multi_candidate_benchmarks"`
	Hits                     int64   `json:"hits"`
	Misses                   int64   `json:"misses"`
	MultiCandidateHitRate    float64 `json:"multi_candidate_hit_rate"`
}

// SynthBenchExhaustiveTarget is one accelerator's slice of the
// exhaustive oracle statistics.
type SynthBenchExhaustiveTarget struct {
	Target                  string  `json:"target"`
	MultiCandidateFunctions int     `json:"multi_candidate_functions"`
	MultiCandidateHits      int64   `json:"multi_candidate_hits"`
	MultiCandidateMisses    int64   `json:"multi_candidate_misses"`
	MultiCandidateHitRate   float64 `json:"multi_candidate_hit_rate"`
}

// SynthBenchReport is the BENCH_synth.json document: the synthesis
// engine's regression numbers at Workers=1 versus Workers=N, plus the
// cross-run determinism verdict.
type SynthBenchReport struct {
	GoMaxProcs int      `json:"gomaxprocs"`
	Targets    []string `json:"targets"`
	Programs   int      `json:"programs"`
	NumTests   int      `json:"num_tests"`

	Runs       []SynthBenchRun       `json:"runs"`
	Exhaustive *SynthBenchExhaustive `json:"exhaustive,omitempty"`

	// Search is the search observatory's view of the first (Workers=1)
	// run: funnel totals, kill-depth distribution and the
	// discriminating-input ranking. The event stream records what a
	// sequential run decides at every worker count, so one run suffices.
	Search *obs.SearchSummary `json:"search,omitempty"`

	// Speedup is the median over interleaved rounds of wall(first run) /
	// wall(last run) — ≥1 when running a candidate's cases in parallel
	// pays off. BenchGate floors it at 1.0 on multi-core hosts; on
	// GOMAXPROCS=1 the parallel run's work is a
	// superset of the sequential run's on the same core, so the gate
	// only demands parity within tolerance there.
	Speedup float64 `json:"speedup"`
	// AdaptersIdentical reports whether every (benchmark, target) pair
	// produced byte-identical adapter C across all runs — the
	// determinism contract, measured rather than assumed.
	AdaptersIdentical bool `json:"adapters_identical"`
}

// SynthBench compiles the supported corpus speedPairs times per worker
// count, in interleaved rounds, and measures the synthesis engine:
// wall-clock, fuzz throughput and reference-oracle cache effectiveness.
// File-level compilation is kept sequential so case-level parallelism is
// the only variable.
// ev, when non-nil, receives the first (sequential) run's events — pass
// the CLI's shared stream so its reports observe the same events as the
// report's search section; nil gets a private stream, as does every
// other run. Each measured run shares one oracle cache across its
// targets, exactly like CompileAll, so the artifact reflects
// cross-target reference-run sharing.
func SynthBench(ctx context.Context, targets []string, numTests int, workerCounts []int, ev *obs.Events) (*SynthBenchReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rep := &SynthBenchReport{
		GoMaxProcs:        runtime.GOMAXPROCS(0),
		Targets:           targets,
		Programs:          len(bench.SupportedSuite()),
		NumTests:          numTests,
		AdaptersIdentical: true,
	}

	// The worker counts are measured in speedPairs interleaved rounds.
	// Each round runs every worker count once, and the order rotates
	// from round to round, so a step in host speed falls inside rounds
	// on both sides instead of on one worker count's block of runs.
	// Speedup is the median of the rounds' wall(first)/wall(last)
	// ratios. WallSeconds keeps each worker count's minimum, the
	// noise-robust estimator the wall-time gates read. Counters and
	// adapters are identical across rounds by the determinism contract
	// (measured rather than assumed below), so the stats come from each
	// worker count's first run.
	runs := make([]SynthBenchRun, len(workerCounts))
	walls := make([][]float64, len(workerCounts)) // [worker count][round]
	var baseline map[string]string
	for round := 0; round < speedPairs; round++ {
		for k := range workerCounts {
			wi := (k + round) % len(workerCounts)
			// The caller's stream takes the first worker count's first run.
			runEv := obs.NewEvents()
			first := wi == 0 && round == 0
			if first && ev != nil {
				runEv = ev
			}
			run, adapters, err := synthBenchRun(ctx, targets, numTests, workerCounts[wi], runEv)
			if err != nil {
				return nil, err
			}
			walls[wi] = append(walls[wi], run.WallSeconds)
			if len(walls[wi]) == 1 {
				runs[wi] = run
			} else if run.WallSeconds < runs[wi].WallSeconds {
				runs[wi].WallSeconds = run.WallSeconds
			}
			if first {
				rep.Search = obs.FoldSearch(runEv.Snapshot())
			}
			if baseline == nil {
				baseline = adapters
			} else if !maps.Equal(baseline, adapters) {
				rep.AdaptersIdentical = false
			}
		}
	}
	for i := range runs {
		if runs[i].WallSeconds > 0 {
			runs[i].TestsPerSec = float64(runs[i].TestsRun) / runs[i].WallSeconds
		}
	}
	rep.Runs = runs
	if last := len(walls) - 1; last > 0 {
		ratios := make([]float64, speedPairs)
		for r := range ratios {
			ratios[r] = walls[0][r] / walls[last][r]
		}
		sort.Float64s(ratios)
		rep.Speedup = ratios[speedPairs/2]
	}

	ex, err := synthBenchExhaustive(ctx, targets, numTests, workerCounts[len(workerCounts)-1])
	if err != nil {
		return nil, err
	}
	rep.Exhaustive = ex
	return rep, nil
}

// speedPairs is how many interleaved rounds SynthBench measures; odd, so
// the median ratio is one round's. Chosen from the measured spread: on a
// 2-vCPU host, three runs of 41 rounds read a median per-round ratio of
// 1.15 with 15% of rounds under 1.0, and medians of 11 rounds resampled
// from them fell under 1.0 in 0.13% of draws (7 rounds: 0.8%).
const speedPairs = 11

// synthBenchRun compiles the corpus once at one worker count: every
// target, each program's targets sharing one oracle cache, with the
// events recorded into ev, whose cost fold the run reports.
// It returns the run's statistics and the adapter C per target/program.
func synthBenchRun(ctx context.Context, targets []string, numTests, workers int,
	ev *obs.Events) (SynthBenchRun, map[string]string, error) {
	tr := obs.New()
	oc := synth.NewOracleCache()
	adapters := map[string]string{}
	start := time.Now()
	for _, target := range targets {
		spec, err := accel.SpecByName(target)
		if err != nil {
			return SynthBenchRun{}, nil, err
		}
		for _, b := range bench.SupportedSuite() {
			comp, err := core.CompileSource(ctx, b.File, b.Source(), spec, core.Options{
				Entry:         b.Entry,
				ProfileValues: b.ProfileValues,
				Trace:         tr,
				Events:        ev,
				Synth:         synth.Options{NumTests: numTests, Workers: workers, Oracle: oc},
			})
			if err != nil {
				return SynthBenchRun{}, nil, err
			}
			if s := comp.Success(); s != nil {
				adapters[target+"/"+b.Name] = s.AdapterC
			}
		}
	}
	wall := time.Since(start)

	c := tr.Metrics().Counters()
	run := SynthBenchRun{
		Workers:          workers,
		WallSeconds:      wall.Seconds(),
		Adapters:         len(adapters),
		CandidatesTested: c["synth.candidates_tested"],
		TestsRun:         c["synth.tests_run"],
		OracleHits:       c["synth.oracle_hits"],
		OracleMisses:     c["synth.oracle_misses"],
	}
	if total := run.OracleHits + run.OracleMisses; total > 0 {
		run.OracleHitRate = float64(run.OracleHits) / float64(total)
	}
	_, sum := obs.FoldCosts(ev.Snapshot())
	run.UsefulTests = sum.Total.UsefulTests
	run.SpeculativeTests = sum.Total.SpeculativeTests
	run.WasteRatio = sum.Total.WasteRatio
	run.WinnerOracleHits = sum.Total.UsefulOracleHits
	costs := map[string]obs.TargetCost{}
	for _, tc := range sum.Targets {
		costs[tc.Target] = tc
	}
	for _, target := range targets {
		t := SynthBenchRunTarget{
			Target:       target,
			OracleHits:   c["synth.oracle_hits."+target],
			OracleMisses: c["synth.oracle_misses."+target],
		}
		if total := t.OracleHits + t.OracleMisses; total > 0 {
			t.OracleHitRate = float64(t.OracleHits) / float64(total)
		}
		if tc, ok := costs[target]; ok {
			t.UsefulTests = tc.UsefulTests
			t.SpeculativeTests = tc.SpeculativeTests
			t.WasteRatio = tc.WasteRatio
		}
		run.PerTarget = append(run.PerTarget, t)
	}
	return run, adapters, nil
}

// synthBenchExhaustive compiles the corpus with ExhaustAll (every binding
// candidate fuzzed, not just up to the first winner) and splits the
// oracle statistics per function via the event stream, so the
// reported cache hit rate can be restricted to functions that actually
// had more than one candidate to share reference runs between. Each
// benchmark's compiles across all targets share one oracle cache — the
// per-target rates therefore include cross-target hits, and the cache's
// own counters feed the CrossTarget section.
func synthBenchExhaustive(ctx context.Context, targets []string, numTests, workers int) (*SynthBenchExhaustive, error) {
	ex := &SynthBenchExhaustive{Workers: workers}
	tr := obs.New()
	start := time.Now()
	perTgt := make([]SynthBenchExhaustiveTarget, len(targets))
	for i, target := range targets {
		perTgt[i].Target = target
	}
	ct := &SynthBenchCrossTarget{}
	for _, b := range bench.SupportedSuite() {
		oc := synth.NewOracleCache()
		benchFuzzed := 0
		for i, target := range targets {
			spec, err := accel.SpecByName(target)
			if err != nil {
				return nil, err
			}
			tgt := &perTgt[i]
			ev := obs.NewEvents()
			if _, err := core.CompileSource(ctx, b.File, b.Source(), spec, core.Options{
				Entry:         b.Entry,
				ProfileValues: b.ProfileValues,
				Trace:         tr,
				Events:        ev,
				Synth: synth.Options{NumTests: numTests, Workers: workers,
					ExhaustAll: true, Oracle: oc},
			}); err != nil {
				return nil, err
			}
			// One compile = one stream, so function names cannot
			// collide across benchmarks here.
			evs := ev.Snapshot()
			fuzzed := map[string]int{}
			for _, e := range evs {
				if e.Kind == obs.KindFuzz {
					fuzzed[e.Function]++
					benchFuzzed++
				}
			}
			for _, e := range evs {
				if e.Kind == obs.KindOracle && fuzzed[e.Function] >= 2 {
					tgt.MultiCandidateFunctions++
					tgt.MultiCandidateHits += e.OracleHits
					tgt.MultiCandidateMisses += e.OracleMisses
				}
			}
		}
		hits, misses, _ := oc.Stats()
		ct.Benchmarks++
		// "Multi-candidate" across targets: with at least two candidates
		// fuzzed over the shared cache, reference-run sharing is possible
		// and the hit rate measures it. (A benchmark compiled for three
		// targets virtually always qualifies.)
		if benchFuzzed >= 2 {
			ct.MultiCandidateBenchmarks++
			ct.Hits += hits
			ct.Misses += misses
		}
	}
	for i := range perTgt {
		tgt := &perTgt[i]
		if total := tgt.MultiCandidateHits + tgt.MultiCandidateMisses; total > 0 {
			tgt.MultiCandidateHitRate = float64(tgt.MultiCandidateHits) / float64(total)
		}
		ex.MultiCandidateFunctions += tgt.MultiCandidateFunctions
		ex.MultiCandidateHits += tgt.MultiCandidateHits
		ex.MultiCandidateMisses += tgt.MultiCandidateMisses
		ex.PerTarget = append(ex.PerTarget, *tgt)
	}
	if total := ct.Hits + ct.Misses; total > 0 {
		ct.MultiCandidateHitRate = float64(ct.Hits) / float64(total)
	}
	ex.CrossTarget = ct
	ex.WallSeconds = time.Since(start).Seconds()
	c := tr.Metrics().Counters()
	ex.CandidatesTested = c["synth.candidates_tested"]
	ex.OracleHits = c["synth.oracle_hits"]
	ex.OracleMisses = c["synth.oracle_misses"]
	if total := ex.OracleHits + ex.OracleMisses; total > 0 {
		ex.OracleHitRate = float64(ex.OracleHits) / float64(total)
	}
	if total := ex.MultiCandidateHits + ex.MultiCandidateMisses; total > 0 {
		ex.MultiCandidateHitRate = float64(ex.MultiCandidateHits) / float64(total)
	}
	return ex, nil
}

// WriteJSON emits the report as indented JSON (the BENCH_synth.json
// artifact format).
func (r *SynthBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText prints the human-readable summary.
func (r *SynthBenchReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Synthesis benchmark: %d programs x %d targets, %d tests/candidate, GOMAXPROCS=%d\n",
		r.Programs, len(r.Targets), r.NumTests, r.GoMaxProcs)
	fmt.Fprintf(w, "%-8s %10s %9s %12s %12s %10s %7s\n",
		"workers", "wall (s)", "adapters", "tests run", "tests/sec", "oracle hit", "waste")
	for _, run := range r.Runs {
		fmt.Fprintf(w, "%-8d %10.2f %9d %12d %12.0f %9.0f%% %6.0f%%\n",
			run.Workers, run.WallSeconds, run.Adapters, run.TestsRun,
			run.TestsPerSec, 100*run.OracleHitRate, 100*run.WasteRatio)
		for _, t := range run.PerTarget {
			fmt.Fprintf(w, "  %-10s oracle %3.0f%% (%d/%d)  tests useful %d | speculative %d (waste %.0f%%)\n",
				t.Target, 100*t.OracleHitRate, t.OracleHits, t.OracleHits+t.OracleMisses,
				t.UsefulTests, t.SpeculativeTests, 100*t.WasteRatio)
		}
	}
	if r.Speedup != 0 {
		fmt.Fprintf(w, "speedup: %.2fx", r.Speedup)
		if r.AdaptersIdentical {
			fmt.Fprintf(w, " (adapters byte-identical across worker counts)\n")
		} else {
			fmt.Fprintf(w, " (WARNING: adapters differ across worker counts)\n")
		}
	}
	if s := r.Search; s != nil {
		fmt.Fprintf(w, "search: %d generated → %d pre-filtered → %d dispatched → %d killed / %d survived → %d winner(s); %d case(s) killed >1 binding family\n",
			s.Generated, s.PreFiltered, s.Dispatched, s.Killed,
			s.Survived, s.Winners, s.MultiFamilyCases)
	}
	if ex := r.Exhaustive; ex != nil {
		fmt.Fprintf(w, "exhaustive (all candidates, workers=%d): %d candidates in %.2fs, oracle %.0f%% overall, %.0f%% on %d multi-candidate functions\n",
			ex.Workers, ex.CandidatesTested, ex.WallSeconds,
			100*ex.OracleHitRate, 100*ex.MultiCandidateHitRate,
			ex.MultiCandidateFunctions)
		for _, tgt := range ex.PerTarget {
			fmt.Fprintf(w, "  %-10s %.0f%% hit rate on %d multi-candidate functions\n",
				tgt.Target, 100*tgt.MultiCandidateHitRate, tgt.MultiCandidateFunctions)
		}
		if ct := ex.CrossTarget; ct != nil {
			fmt.Fprintf(w, "  cross-target (one oracle cache per benchmark across %d targets): %.0f%% hit rate (%d/%d lookups) on %d/%d multi-candidate benchmarks\n",
				len(r.Targets), 100*ct.MultiCandidateHitRate, ct.Hits,
				ct.Hits+ct.Misses, ct.MultiCandidateBenchmarks, ct.Benchmarks)
		}
	}
}
