// Command facc compiles a MiniC source file against an FFT accelerator
// target and prints the synthesized drop-in adapter.
//
// Usage:
//
//	facc -target ffta [-entry fft] [-profile n=64,128,256] [-tests 10]
//	     [-trace trace.json] [-metrics]
//	     [-journal prov.jsonl] [-explain] [-costs]
//	     [-search-report] [-timeout 30s] [-candidate-timeout 50ms]
//	     file.c
//
// -trace writes a Chrome trace_event file (load in chrome://tracing or
// https://ui.perfetto.dev) with one nested span per pipeline stage down to
// individual fuzzed candidates; -metrics prints a human-readable summary of
// stage timings and pipeline counters to stderr; -journal writes the
// synthesis provenance journal as JSONL; -explain renders it as a
// human-readable "why was / wasn't this adapter synthesised" report;
// -costs prints the synthesis cost ledger — how much interpreter work went
// to the winning candidate (useful) versus killed losers, including cases
// started past a kill (speculative), and how much the oracle shared across
// duplicates, per target, with the waste ratio; -search-report prints the
// search observatory — the candidate funnel (generated → pre-filtered →
// dispatched → killed/survived → winner), the kill-depth distribution,
// and the IO cases that discriminated the most binding families.
//
// Robustness: -timeout bounds the whole compilation's wall clock, and
// -candidate-timeout bounds fuzzing any one binding candidate (a hung
// candidate costs one candidate, not the compile).
//
// facc has no -serve: a run lasts milliseconds, too short to scrape, so
// the live endpoints (and the HTTP server they need) are left to
// faccbench and faccclassify, whose runs last long enough to watch.
//
// Exit status: 0 on success (adapter printed to stdout), 1 when no adapter
// could be synthesized (reason printed to stderr), 2 on usage/frontend
// errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"facc"
	"facc/internal/obs/obsflag"
)

func main() {
	target := flag.String("target", "ffta", "compilation target: ffta, powerquad, fftw")
	entry := flag.String("entry", "", "function to compile (default: consider all)")
	profileFlag := flag.String("profile", "",
		"value profile, e.g. \"n=64,128,256;inverse=0,1\"")
	tests := flag.Int("tests", 10, "IO examples per candidate")
	classify := flag.Bool("classify", false,
		"train the neural classifier for candidate detection (slower startup)")
	output := flag.String("o", "", "write the adapter to this file instead of stdout")
	integrate := flag.Bool("integrate", false,
		"emit the whole rewritten translation unit (call sites redirected to the adapter)")
	of := obsflag.RegisterSynth(flag.CommandLine, "facc")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: facc [flags] file.c\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "facc: %v\n", err)
		os.Exit(2)
	}

	profile, err := parseProfile(*profileFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "facc: %v\n", err)
		os.Exit(2)
	}

	opts := facc.Options{
		Entry:            *entry,
		ProfileValues:    profile,
		NumTests:         *tests,
		Workers:          of.Workers,
		Trace:            of.Tracer(),
		Journal:          of.Journal(),
		Ledger:           of.Ledger(),
		Kills:            of.Kills(),
		Deadline:         of.Timeout,
		CandidateTimeout: of.CandidateTimeout,
	}
	if *classify {
		clf, err := facc.Train(12, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "facc: training classifier: %v\n", err)
			os.Exit(2)
		}
		opts.Classifier = clf
	}

	// SIGINT/SIGTERM cancel the compile context: the pipeline stops at its
	// next cancellation point and the Finish call below still flushes
	// -trace/-metrics/-journal output rather than leaving partial files.
	ctx, stop := of.WithSignals(context.Background())
	defer stop()
	// Stamp the run with a trace ID so spans, journal lines and ledger
	// accounts from this invocation are joinable, like a served request.
	ctx, _ = of.WithTrace(ctx)
	res, err := facc.CompileContext(ctx, path, string(src), *target, opts)
	if ferr := of.Finish(); ferr != nil {
		fmt.Fprintf(os.Stderr, "facc: %v\n", ferr)
		os.Exit(2)
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "facc: interrupted; observability output flushed\n")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "facc: %v\n", err)
		os.Exit(2)
	}
	if !res.OK() {
		fmt.Fprintf(os.Stderr, "facc: no adapter synthesized: %s\n", res.FailReason())
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s\n", res)
	text := res.AdapterC()
	if *integrate {
		text, err = res.IntegratedUnit()
		if err != nil {
			fmt.Fprintf(os.Stderr, "facc: %v\n", err)
			os.Exit(1)
		}
	}
	if *output != "" {
		if err := os.WriteFile(*output, []byte(text), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "facc: %v\n", err)
			os.Exit(2)
		}
		return
	}
	fmt.Print(text)
}

// parseProfile parses "n=64,128;flag=0,1" into a value table.
func parseProfile(s string) (map[string][]int64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string][]int64{}
	for _, group := range strings.Split(s, ";") {
		name, vals, ok := strings.Cut(group, "=")
		if !ok || strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("malformed profile group %q (want name=v1,v2)", group)
		}
		for _, v := range strings.Split(vals, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("profile value %q: %v", v, err)
			}
			out[name] = append(out[name], n)
		}
	}
	return out, nil
}
