// Command faccclassify trains the ProGraML-style neural classifier on the
// OJClone-style dataset and reports cross-validation metrics (the paper's
// Fig. 11 protocol), or classifies the functions of a MiniC file.
//
// Usage:
//
//	faccclassify -cv                       # cross-validation curves
//	faccclassify -cv -full                 # paper-size protocol
//	faccclassify file.c                    # label the functions of a file
//	faccclassify -trace clf.json -metrics file.c  # traced classification
//
// The shared observability flags (-trace, -metrics, -serve) match facc and
// faccbench: -trace writes a Chrome trace_event file of the train/classify
// stages, -metrics prints the stage/counter summary to stderr, -serve
// exposes the live /metrics, /status, /trace and /debug/pprof endpoints
// for the duration of the run.
package main

import (
	"flag"
	"fmt"
	"os"

	"facc/internal/core"
	"facc/internal/eval"
	"facc/internal/minic"
	"facc/internal/obs"
	"facc/internal/obs/obsflag"
	"facc/internal/obs/obshttp"
)

func main() {
	cv := flag.Bool("cv", false, "run the cross-validation experiment")
	full := flag.Bool("full", false, "paper-size protocol (20/class, 10 folds)")
	perClass := flag.Int("perclass", 12, "training instances per class for file classification")
	of := obsflag.Register(flag.CommandLine, "faccclassify")
	obshttp.RegisterFlag(flag.CommandLine, of)
	flag.Parse()

	if err := obshttp.ServeFlags(of); err != nil {
		fmt.Fprintf(os.Stderr, "faccclassify: %v\n", err)
		os.Exit(1)
	}
	// Training and cross-validation are not context-aware, so a SIGINT or
	// SIGTERM flushes the requested -trace/-metrics output and exits
	// instead of dropping it on the floor.
	of.FlushOnSignal()
	tr := of.Tracer()
	// One run = one trace ID, stamped on every root span so exported
	// traces are joinable exactly like a served request's X-Facc-Trace.
	runID := obs.NewTraceID()
	finish := func() {
		if err := of.Finish(); err != nil {
			fmt.Fprintf(os.Stderr, "faccclassify: %v\n", err)
			os.Exit(1)
		}
	}

	if *cv {
		cfg := eval.DefaultFig11()
		if *full {
			cfg = eval.PaperFig11()
		}
		sp := tr.Span("crossvalidate").SetTrace(runID)
		_, err := eval.Fig11(os.Stdout, cfg)
		sp.End()
		finish()
		if err != nil {
			fmt.Fprintf(os.Stderr, "faccclassify: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: faccclassify [-cv [-full]] | faccclassify file.c\n")
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faccclassify: %v\n", err)
		os.Exit(2)
	}
	fsp := tr.Span("frontend").SetTrace(runID).Str("file", path)
	f, err := minic.ParseAndCheck(path, string(src))
	fsp.End()
	if err != nil {
		finish()
		fmt.Fprintf(os.Stderr, "faccclassify: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "faccclassify: training (%d instances/class)...\n", *perClass)
	tsp := tr.Span("train").SetTrace(runID).Int("per_class", int64(*perClass))
	clf, err := core.TrainClassifier(*perClass, 1)
	tsp.End()
	if err != nil {
		finish()
		fmt.Fprintf(os.Stderr, "faccclassify: %v\n", err)
		os.Exit(1)
	}
	csp := tr.Span("classify").SetTrace(runID).Str("file", path)
	candidates := clf.CandidateFunctions(f)
	csp.Int("candidates", int64(len(candidates))).End()
	defer finish()
	set := map[string]bool{}
	for _, c := range candidates {
		set[c] = true
	}
	for _, fn := range f.Funcs {
		if fn.Body == nil {
			continue
		}
		label := "-"
		if set[fn.Name] {
			label = "FFT candidate (top-3)"
		}
		fmt.Printf("%-24s %s\n", fn.Name, label)
	}
}
