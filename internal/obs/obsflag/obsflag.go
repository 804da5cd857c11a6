// Package obsflag wires the shared observability flags into the FACC
// command-line binaries so facc, faccbench and faccclassify expose the
// same -trace/-metrics surface (and facc/faccbench additionally
// -journal/-explain plus the robustness budget flags -timeout and
// -candidate-timeout), with one implementation of the
// export plumbing. The live endpoints (-serve) live in obshttp, which
// only the binaries whose runs last long enough to watch link.
package obsflag

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"facc/internal/obs"
)

// Flags holds the parsed observability flag values and the sinks they
// enable. The zero value (no flags set) enables nothing: Tracer() and
// Journal() return nil and the pipeline runs uninstrumented.
type Flags struct {
	TraceFile string
	Metrics   bool
	// Serve is the -serve address of the live endpoints, set only by
	// binaries that register the flag with obshttp.RegisterFlag. The
	// endpoints show every sink, so a non-empty Serve makes Tracer,
	// Ledger and Kills non-nil.
	Serve       string
	JournalFile string
	Explain     bool
	Costs       bool
	// SearchReport (-search-report) prints the search observatory
	// report — funnel, kill-depth distribution, top discriminating
	// inputs — to stderr.
	SearchReport bool

	// Robustness budgets (RegisterSynth binaries only). Timeout bounds
	// the whole run and CandidateTimeout one fuzzed binding candidate.
	Timeout          time.Duration
	CandidateTimeout time.Duration

	// Workers (-j, RegisterSynth binaries only) bounds case-level
	// parallelism inside generate-and-test: how many of a candidate's IO
	// cases run at once. 0 = GOMAXPROCS; results are deterministic
	// regardless of the value.
	Workers int

	prog     string
	tr       *obs.Tracer
	j        *obs.Journal
	led      *obs.Ledger
	kills    *obs.KillTable
	shutdown func() error
}

// Register installs the shared tracing flags (-trace, -metrics) on fs.
// prog names the binary in diagnostics.
func Register(fs *flag.FlagSet, prog string) *Flags {
	f := &Flags{prog: prog}
	fs.StringVar(&f.TraceFile, "trace", "",
		"write a Chrome trace_event file of the pipeline")
	fs.BoolVar(&f.Metrics, "metrics", false,
		"print stage timings and pipeline counters to stderr")
	return f
}

// Prog is the binary's name, for diagnostics.
func (f *Flags) Prog() string { return f.prog }

// OnFinish registers shutdown to run first in Finish: obshttp stops the
// -serve endpoints, which live for the duration of the run, through it.
func (f *Flags) OnFinish(shutdown func() error) { f.shutdown = shutdown }

// RegisterSynth additionally installs the provenance flags (-journal,
// -explain) and the robustness budget flags (-timeout,
// -candidate-timeout) for binaries that run the synthesis pipeline.
func RegisterSynth(fs *flag.FlagSet, prog string) *Flags {
	f := Register(fs, prog)
	fs.StringVar(&f.JournalFile, "journal", "",
		"write the synthesis provenance journal (JSONL) to this file")
	fs.BoolVar(&f.Explain, "explain", false,
		"print the provenance report (why each adapter was / was not synthesised) to stderr")
	fs.BoolVar(&f.Costs, "costs", false,
		"print the synthesis cost ledger (useful vs speculative vs shared work per target) to stderr")
	fs.BoolVar(&f.SearchReport, "search-report", false,
		"print the search observatory report (kill attribution, funnel, top discriminating inputs) to stderr")
	fs.DurationVar(&f.Timeout, "timeout", 0,
		"abort the whole run after this wall-clock budget, e.g. 30s (0 = no deadline)")
	fs.DurationVar(&f.CandidateTimeout, "candidate-timeout", 0,
		"reject any single binding candidate whose fuzzing exceeds this budget (0 = no budget)")
	fs.IntVar(&f.Workers, "j", 0,
		"run up to this many of a binding candidate's IO cases in parallel; 0 = GOMAXPROCS, 1 = sequential (the result is deterministic either way)")
	return f
}

// Tracer returns the shared tracer, created on first use when any flag
// needs one; nil when tracing is not requested, so the pipeline's hot
// paths stay uninstrumented.
func (f *Flags) Tracer() *obs.Tracer {
	if f.tr == nil && (f.TraceFile != "" || f.Metrics || f.Serve != "") {
		f.tr = obs.New()
	}
	return f.tr
}

// Journal returns the provenance journal, created on first use when
// -journal or -explain is set; nil otherwise.
func (f *Flags) Journal() *obs.Journal {
	if f.j == nil && (f.JournalFile != "" || f.Explain) {
		f.j = obs.NewJournal()
	}
	return f.j
}

// Ledger returns the synthesis cost ledger, created on first use when
// -costs or -serve is set; nil otherwise so the fuzz loop's nil guards
// keep the hot path allocation-free.
func (f *Flags) Ledger() *obs.Ledger {
	if f.led == nil && (f.Costs || f.Serve != "") {
		f.led = obs.NewLedger()
	}
	return f.led
}

// Kills returns the search-observatory kill table, created on first use
// when -search-report or -serve is set; nil otherwise so the verdict
// path's nil guards keep synthesis allocation-free.
func (f *Flags) Kills() *obs.KillTable {
	if f.kills == nil && (f.SearchReport || f.Serve != "") {
		f.kills = obs.NewKillTable()
	}
	return f.kills
}

// WithTrace stamps ctx with a fresh run-scoped trace ID so every span,
// journal line and ledger account produced by this CLI invocation is
// joinable, exactly like a served request's X-Facc-Trace. The ID is
// returned for diagnostics.
func (f *Flags) WithTrace(ctx context.Context) (context.Context, string) {
	id := obs.NewTraceID()
	return obs.WithTraceID(ctx, id), id
}

// WithSignals returns a copy of ctx that is cancelled on SIGINT or
// SIGTERM, so a ^C or an orchestrator's stop request winds the pipeline
// down through its normal cancellation points and the binary still
// flushes -trace/-metrics/-journal output via Finish instead of dying
// with partial files. The first signal prints one notice to stderr; a
// second kills the process immediately (the handler is uninstalled after
// the first). Call the returned stop function when signal handling
// should end: it cancels the context, prints nothing, and returns once
// the handler is uninstalled.
func (f *Flags) WithSignals(ctx context.Context) (context.Context, context.CancelFunc) {
	sctx, cancel := context.WithCancel(ctx)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-sigs:
			signal.Stop(sigs)
			fmt.Fprintf(os.Stderr, "%s: interrupt: finishing up (^C again to kill)\n", f.prog)
			cancel()
		case <-sctx.Done():
			signal.Stop(sigs)
		}
	}()
	return sctx, func() {
		cancel()
		<-done
	}
}

// FlushOnSignal installs a handler for binaries whose work is not yet
// context-aware: the first SIGINT/SIGTERM flushes every requested export
// (trace, metrics summary, journal, explain report) and exits 130. Use
// WithSignals instead wherever the work accepts a context.
func (f *Flags) FlushOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		signal.Stop(ch)
		fmt.Fprintf(os.Stderr, "%s: interrupt: flushing observability output\n", f.prog)
		if err := f.Finish(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f.prog, err)
		}
		os.Exit(130)
	}()
}

// Finish runs the OnFinish shutdown, if any, and writes every requested
// export: the Chrome trace file, the stderr summary, the JSONL journal,
// and the explain report. The first error is returned after all exports
// are attempted.
func (f *Flags) Finish() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if f.shutdown != nil {
		keep(f.shutdown())
	}
	if f.TraceFile != "" && f.tr != nil {
		keep(writeFile(f.TraceFile, f.tr.WriteChromeTrace))
	}
	if f.Metrics && f.tr != nil {
		keep(f.tr.WriteSummary(os.Stderr))
	}
	if f.JournalFile != "" && f.j != nil {
		keep(writeFile(f.JournalFile, f.j.WriteJSONL))
	}
	if f.Explain && f.j != nil {
		keep(f.j.WriteReport(os.Stderr))
	}
	if f.Costs && f.led != nil {
		keep(f.led.WriteCostReport(os.Stderr))
	}
	if f.SearchReport && f.kills != nil {
		keep(f.kills.WriteSearchReport(os.Stderr, 10))
	}
	return first
}

func writeFile(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(out)
	if cerr := out.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
