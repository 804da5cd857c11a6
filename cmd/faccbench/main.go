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
//	faccbench -experiment crashmatrix -bench-out CRASH_MATRIX.json  # store crash matrix
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"facc/internal/core"
	"facc/internal/eval"
	"facc/internal/obs"
	"facc/internal/obs/obsflag"
	"facc/internal/obs/obshttp"
)

func main() {
	experiment := flag.String("experiment", "all",
		"table1, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15, fig16, ablation, all, or searchbench/crashmatrix (not in all)")
	full := flag.Bool("full", false, "use the paper-size Fig. 11 protocol (slow)")
	tests := flag.Int("tests", 5, "IO examples per candidate during compilation")
	benchOut := flag.String("bench-out", "",
		"with -experiment crashmatrix: also write the report as JSON to this file (e.g. CRASH_MATRIX.json)")
	crashDir := flag.String("crash-dir", "",
		"with -experiment crashmatrix: keep each crashed store (quarantine evidence included) under this directory for artifact upload")
	of := obsflag.RegisterSynth(flag.CommandLine, "faccbench")
	obshttp.RegisterFlag(flag.CommandLine, of)
	flag.Parse()

	if err := obshttp.ServeFlags(of); err != nil {
		fmt.Fprintf(os.Stderr, "faccbench: %v\n", err)
		os.Exit(1)
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
	case "searchbench":
		err = runSearchBench(ctx, *tests, of)
	case "crashmatrix":
		err = runCrashMatrix(ctx, *benchOut, *crashDir)
	default:
		err = run(ctx, *experiment, *full, *tests, of.Tracer(), of.Events())
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

// runSearchBench compiles the corpus once at Workers=1 with an event
// stream attached and prints the search observatory report: the funnel,
// kill-depth distribution and top discriminating inputs.
func runSearchBench(ctx context.Context, tests int, of *obsflag.Flags) error {
	ev := of.Events()
	if ev == nil {
		ev = obs.NewEvents()
	}
	fmt.Fprintf(os.Stderr, "faccbench: search benchmark (sequential corpus compile, kill attribution on)...\n")
	if err := eval.SearchBench(ctx, []string{"ffta", "powerquad", "fftw"}, tests, ev); err != nil {
		return err
	}
	return ev.WriteSearchReport(os.Stdout, 10)
}

func run(ctx context.Context, experiment string, full bool, tests int, tr *obs.Tracer, ev *obs.Events) error {
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
		outcomes, err = eval.CompileAll(ctx, targets, tests, tr, ev)
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
