// Command faccbench regenerates the paper's evaluation: Table 1 and
// Figures 8 through 16. Each experiment prints the same rows/series the
// paper reports (see DESIGN.md for the experiment index and EXPERIMENTS.md
// for paper-vs-measured numbers).
//
// Usage:
//
//	faccbench                       # run everything
//	faccbench -experiment fig13     # one experiment
//	faccbench -experiment fig11 -full   # paper-size classifier protocol
//	faccbench -experiment fig15 -trace corpus.json -metrics  # traced corpus compile
//	faccbench -experiment fig8 -serve :9090  # watch the corpus compile live
//	faccbench -experiment searchbench -bench-out BENCH_synth.json  # refresh the search section
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"facc/internal/core"
	"facc/internal/eval"
	"facc/internal/obs"
	"facc/internal/obs/obsflag"
	"facc/internal/obs/obshttp"
)

func main() {
	experiment := flag.String("experiment", "all",
		"table1, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15, fig16, ablation, all, or synthbench/searchbench/servebench/benchgate/crashmatrix (not in all)")
	full := flag.Bool("full", false, "use the paper-size Fig. 11 protocol (slow)")
	tests := flag.Int("tests", 5, "IO examples per candidate during compilation")
	benchOut := flag.String("bench-out", "",
		"with -experiment synthbench/servebench: also write the report as JSON to this file (e.g. BENCH_synth.json)")
	gateSynth := flag.String("gate-synth", "",
		`with -experiment benchgate: "baseline.json:fresh.json" pair of synthesis artifacts`)
	gateServe := flag.String("gate-serve", "",
		`with -experiment benchgate: "baseline.json:fresh.json" pair of serving artifacts`)
	gateTol := flag.Float64("gate-tolerance", 0.25,
		"with -experiment benchgate: allowed fractional regression before failing (0.25 = 25%)")
	crashDir := flag.String("crash-dir", "",
		"with -experiment crashmatrix: keep each crashed store (quarantine evidence included) under this directory for artifact upload")
	of := obsflag.RegisterSynth(flag.CommandLine, "faccbench")
	obshttp.RegisterFlag(flag.CommandLine, of)
	flag.Parse()

	if err := obshttp.ServeFlags(of); err != nil {
		fmt.Fprintf(os.Stderr, "faccbench: %v\n", err)
		os.Exit(1)
	}
	if of.CandidateTimeout != 0 {
		fmt.Fprintf(os.Stderr, "faccbench: -candidate-timeout applies to facc only; ignoring\n")
	}
	// SIGINT/SIGTERM cancel the run: experiments stop at the next
	// cancellation point and the observability exports below still flush,
	// so an interrupted run never leaves partial -trace/-journal files.
	ctx, stop := of.WithSignals(context.Background())
	defer stop()
	if of.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, of.Timeout)
		defer cancel()
	}
	var err error
	switch *experiment {
	case "synthbench":
		err = runSynthBench(ctx, *tests, of, *benchOut)
	case "searchbench":
		err = runSearchBench(ctx, *tests, of, *benchOut)
	case "servebench":
		err = runServeBench(ctx, *benchOut)
	case "benchgate":
		err = runBenchGate(*gateSynth, *gateServe, *gateTol)
	case "crashmatrix":
		err = runCrashMatrix(ctx, *benchOut, *crashDir)
	default:
		err = run(ctx, *experiment, *full, *tests, of.Tracer(), of.Journal(), of.Ledger())
	}
	if ferr := of.Finish(); ferr != nil {
		fmt.Fprintf(os.Stderr, "faccbench: %v\n", ferr)
		os.Exit(1)
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "faccbench: interrupted; observability output flushed\n")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "faccbench: %v\n", err)
		os.Exit(1)
	}
}

// runCrashMatrix crashes the adapter store at every durable operation in
// every mode and demands consistent recovery; -bench-out keeps the
// CRASH_MATRIX.json artifact, -crash-dir the crashed stores themselves
// (quarantine evidence included). A failing cell fails the run.
func runCrashMatrix(ctx context.Context, benchOut, crashDir string) error {
	fmt.Fprintf(os.Stderr, "faccbench: crash matrix (every log append, fsync, truncate and rename)...\n")
	cfg := eval.CrashMatrixConfig{}
	if crashDir != "" {
		if err := os.MkdirAll(crashDir, 0o755); err != nil {
			return err
		}
		cfg.Dir = crashDir
		cfg.KeepArtifacts = true
	}
	rep, err := eval.RunCrashMatrix(ctx, cfg)
	if err != nil {
		return err
	}
	rep.WriteText(os.Stdout)
	if benchOut != "" {
		out, err := os.Create(benchOut)
		if err != nil {
			return err
		}
		werr := rep.WriteJSON(out)
		if cerr := out.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "faccbench: wrote %s\n", benchOut)
	}
	if !rep.OK() {
		return fmt.Errorf("crash matrix: %d of %d cells failed recovery", rep.Failed, rep.Runs)
	}
	return nil
}

// runServeBench saturates an in-process faccd-style compile service and
// a three-replica fleet, eval.ServeBenchRuns times each, and reports
// every run's latency quantiles plus shed/dedup/cache counts; -bench-out
// additionally writes the BENCH_serve.json artifact, the runs folded by
// eval.MergeServeRuns.
func runServeBench(ctx context.Context, benchOut string) error {
	var runs []*eval.ServeBenchReport
	for i := 1; i <= eval.ServeBenchRuns; i++ {
		fmt.Fprintf(os.Stderr, "faccbench: serving benchmark, run %d of %d (saturating an in-process faccd)...\n",
			i, eval.ServeBenchRuns)
		rep, err := eval.ServeBench(ctx, eval.ServeBenchConfig{})
		if err != nil {
			return err
		}
		rep.WriteText(os.Stdout)
		fmt.Fprintf(os.Stderr, "faccbench: fleet chaos benchmark, run %d of %d (3 replicas, kill + lossy partition)...\n",
			i, eval.ServeBenchRuns)
		fleetRep, err := eval.FleetBench(ctx, eval.FleetBenchConfig{})
		if err != nil {
			return err
		}
		fleetRep.WriteText(os.Stdout)
		rep.Fleet = fleetRep
		runs = append(runs, rep)
	}
	rep := eval.MergeServeRuns(runs)
	if benchOut != "" {
		out, err := os.Create(benchOut)
		if err != nil {
			return err
		}
		werr := rep.WriteJSON(out)
		if cerr := out.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "faccbench: wrote %s\n", benchOut)
	}
	return nil
}

// runSynthBench measures the generate-and-test engine at Workers=1 versus
// Workers=N (-j, default GOMAXPROCS): corpus wall-clock, fuzz throughput,
// oracle cache hit-rate and cross-run adapter determinism. The summary
// prints to stdout; -bench-out additionally writes the JSON artifact.
// The shared kill table (non-nil under -search-report/-serve) receives
// the sequential run's kill attribution, so the report sees exactly the
// events behind the artifact's search section.
func runSynthBench(ctx context.Context, tests int, of *obsflag.Flags, benchOut string) error {
	workers := of.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	counts := []int{1}
	if workers > 1 {
		counts = append(counts, workers)
	}
	fmt.Fprintf(os.Stderr, "faccbench: synthesis benchmark at workers=%v...\n", counts)
	rep, err := eval.SynthBench(ctx, []string{"ffta", "powerquad", "fftw"}, tests, counts, of.Kills())
	if err != nil {
		return err
	}
	rep.WriteText(os.Stdout)
	if benchOut != "" {
		out, err := os.Create(benchOut)
		if err != nil {
			return err
		}
		werr := rep.WriteJSON(out)
		if cerr := out.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "faccbench: wrote %s\n", benchOut)
	}
	return nil
}

// runSearchBench compiles the corpus once at Workers=1 with the kill
// table attached and prints the search observatory report: the funnel,
// kill-depth distribution and top discriminating inputs. With
// -bench-out it merges the summary into that BENCH_synth.json's
// "search" section (other sections are preserved; the file is created
// with only the search section when absent).
func runSearchBench(ctx context.Context, tests int, of *obsflag.Flags, benchOut string) error {
	kills := of.Kills()
	if kills == nil {
		kills = obs.NewKillTable()
	}
	fmt.Fprintf(os.Stderr, "faccbench: search benchmark (sequential corpus compile, kill attribution on)...\n")
	if err := eval.SearchBench(ctx, []string{"ffta", "powerquad", "fftw"}, tests, kills); err != nil {
		return err
	}
	if err := kills.WriteSearchReport(os.Stdout, 10); err != nil {
		return err
	}
	if benchOut != "" {
		var rep eval.SynthBenchReport
		if data, err := os.ReadFile(benchOut); err == nil {
			if err := json.Unmarshal(data, &rep); err != nil {
				return fmt.Errorf("-bench-out %s: %w", benchOut, err)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
		rep.Search = kills.Summary()
		out, err := os.Create(benchOut)
		if err != nil {
			return err
		}
		werr := rep.WriteJSON(out)
		if cerr := out.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "faccbench: merged search section into %s\n", benchOut)
	}
	return nil
}

// runBenchGate compares fresh benchmark artifacts against committed
// baselines and exits non-zero on a regression beyond the tolerance.
// Each pair argument is "baseline.json:fresh.json"; empty skips the pair.
func runBenchGate(synthPair, servePair string, tol float64) error {
	cfg := eval.GateConfig{Tolerance: tol}
	var ok bool
	if synthPair != "" {
		if cfg.BaselineSynth, cfg.FreshSynth, ok = strings.Cut(synthPair, ":"); !ok {
			return fmt.Errorf("-gate-synth: want baseline.json:fresh.json, got %q", synthPair)
		}
	}
	if servePair != "" {
		if cfg.BaselineServe, cfg.FreshServe, ok = strings.Cut(servePair, ":"); !ok {
			return fmt.Errorf("-gate-serve: want baseline.json:fresh.json, got %q", servePair)
		}
	}
	rep, err := eval.BenchGate(cfg)
	if err != nil {
		return err
	}
	rep.WriteText(os.Stdout)
	if !rep.OK() {
		return fmt.Errorf("bench gate failed: %d regression(s)", rep.Failures)
	}
	return nil
}

func run(ctx context.Context, experiment string, full bool, tests int, tr *obs.Tracer, j *obs.Journal, led *obs.Ledger) error {
	w := os.Stdout
	sep := func() { fmt.Fprintln(w) }

	want := func(name string) bool { return experiment == "all" || experiment == name }

	// Shared state, computed lazily.
	var outcomes []*eval.CompileOutcome
	needOutcomes := func(targets []string) error {
		if outcomes != nil {
			return nil
		}
		fmt.Fprintf(os.Stderr, "faccbench: compiling the corpus (%d targets x 25 programs)...\n",
			len(targets))
		var err error
		outcomes, err = eval.CompileAll(ctx, targets, tests, tr, j, led)
		return err
	}
	allTargets := []string{"ffta", "powerquad", "fftw"}
	prof := eval.NewProfiler()

	if want("table1") {
		eval.Table1(w)
		sep()
	}
	if want("fig8") {
		if err := needOutcomes(allTargets); err != nil {
			return err
		}
		eval.Fig8(w, outcomes)
		sep()
	}
	if want("fig9") {
		if err := needOutcomes(allTargets); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "faccbench: training classifier for fig9...\n")
		clf, err := core.TrainClassifier(12, 1)
		if err != nil {
			return err
		}
		if err := eval.Fig9(w, outcomes, clf); err != nil {
			return err
		}
		sep()
	}
	if want("fig10") {
		if err := eval.Fig10(w, prof); err != nil {
			return err
		}
		sep()
	}
	if want("fig11") {
		cfg := eval.DefaultFig11()
		if full {
			cfg = eval.PaperFig11()
		}
		if _, err := eval.Fig11(w, cfg); err != nil {
			return err
		}
		sep()
	}
	if want("fig12") {
		if err := eval.Fig12(w); err != nil {
			return err
		}
		sep()
	}
	if want("fig13") {
		if err := eval.Fig13(w, prof); err != nil {
			return err
		}
		sep()
	}
	if want("fig14") {
		if err := eval.Fig14(w, prof); err != nil {
			return err
		}
		sep()
	}
	if want("fig15") {
		if err := needOutcomes(allTargets); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "faccbench: timing each compile with a private oracle cache for fig15...\n")
		private, err := eval.CompileAllPrivate(ctx, allTargets, tests)
		if err != nil {
			return err
		}
		eval.Fig15(w, private, outcomes)
		sep()
	}
	if want("fig16") {
		if err := needOutcomes(allTargets); err != nil {
			return err
		}
		eval.Fig16(w, outcomes)
		sep()
	}
	if want("ablation") {
		if err := eval.Ablation(w); err != nil {
			return err
		}
		sep()
	}
	return nil
}
