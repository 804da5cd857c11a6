// Package obsflag wires the shared observability flags into the FACC
// command-line binaries so facc, faccbench and faccclassify expose the
// same -trace/-metrics/-serve surface (and facc/faccbench additionally
// -journal/-explain plus the robustness budget flags -timeout,
// -candidate-timeout and -faults), with one implementation of the
// export plumbing.
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
	"facc/internal/obs/obshttp"
)

// Flags holds the parsed observability flag values and the sinks they
// enable. The zero value (no flags set) enables nothing: Tracer() and
// Journal() return nil and the pipeline runs uninstrumented.
type Flags struct {
	TraceFile   string
	Metrics     bool
	Serve       string
	JournalFile string
	Explain     bool
	Costs       bool
	// SearchReport (-search-report) prints the search observatory
	// report — funnel, kill-depth distribution, top discriminating
	// inputs — to stderr. CexPoolFile (-cex-pool) persists those
	// discriminating inputs across runs in a crash-safe JSONL pool.
	SearchReport bool
	CexPoolFile  string

	// Robustness budgets (RegisterSynth binaries only). Timeout bounds
	// the whole run, CandidateTimeout one fuzzed binding candidate, and
	// Faults carries an unparsed fault-injection profile (parsed by the
	// binary with facc.ParseFaultProfile so this package stays free of
	// pipeline dependencies).
	Timeout          time.Duration
	CandidateTimeout time.Duration
	Faults           string

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
	pool     *obs.CexPool
	shutdown func() error
}

// Register installs the shared tracing flags (-trace, -metrics, -serve)
// on fs. prog names the binary in diagnostics.
func Register(fs *flag.FlagSet, prog string) *Flags {
	f := &Flags{prog: prog}
	fs.StringVar(&f.TraceFile, "trace", "",
		"write a Chrome trace_event file of the pipeline")
	fs.BoolVar(&f.Metrics, "metrics", false,
		"print stage timings and pipeline counters to stderr")
	fs.StringVar(&f.Serve, "serve", "",
		"serve live observability endpoints (/metrics, /status, /trace, /debug/pprof) on this address, e.g. :9090")
	return f
}

// RegisterSynth additionally installs the provenance flags (-journal,
// -explain) and the robustness budget flags (-timeout,
// -candidate-timeout, -faults) for binaries that run the synthesis
// pipeline.
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
	fs.StringVar(&f.CexPoolFile, "cex-pool", "",
		"persist the discriminating-input counterexample pool (crash-safe JSONL) in this file across runs")
	fs.DurationVar(&f.Timeout, "timeout", 0,
		"abort the whole run after this wall-clock budget, e.g. 30s (0 = no deadline)")
	fs.DurationVar(&f.CandidateTimeout, "candidate-timeout", 0,
		"reject any single binding candidate whose fuzzing exceeds this budget (0 = no budget)")
	fs.StringVar(&f.Faults, "faults", "",
		`inject accelerator faults for chaos testing: a preset (flaky, lossy, slow, chaos) or rates like "error=0.3,corrupt=0.01,latency=0.1,seed=7" (implies retry+breaker hardening)`)
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
// when -search-report, -cex-pool or -serve is set; nil otherwise so the
// verdict path's nil guards keep synthesis allocation-free.
func (f *Flags) Kills() *obs.KillTable {
	if f.kills == nil && (f.SearchReport || f.CexPoolFile != "" || f.Serve != "") {
		f.kills = obs.NewKillTable()
	}
	return f.kills
}

// Pool returns the counterexample pool when -cex-pool is set (loaded by
// Start; empty before Start or when the file did not exist), nil
// otherwise. Pass it to the pipeline via Options.Cex: synthesis replays
// its ranked counterexamples before fresh fuzz cases and records every
// kill into it live, so Finish flushes a pool that already reflects
// this run's discriminating inputs.
func (f *Flags) Pool() *obs.CexPool {
	if f.pool == nil && f.CexPoolFile != "" {
		f.pool = obs.NewCexPool()
	}
	return f.pool
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

// Start loads the counterexample pool (when -cex-pool names one) and
// launches the observability HTTP server when -serve is set, printing
// the bound address to stderr.
func (f *Flags) Start() error {
	if f.CexPoolFile != "" {
		// Loaded read-write: Pool() hands it to synthesis, which replays
		// its ranked counterexamples first and records every kill into
		// it live; Finish flushes the updated ranking back. Replay only
		// reorders each candidate's own case stream, so results are
		// byte-identical with or without the pool.
		pool, info, err := obs.LoadCexPool(f.CexPoolFile)
		if err != nil {
			return fmt.Errorf("%s: -cex-pool %s: %w", f.prog, f.CexPoolFile, err)
		}
		if info.Quarantined != "" {
			fmt.Fprintf(os.Stderr, "%s: -cex-pool %s: corrupt pool quarantined to %s; starting empty\n",
				f.prog, f.CexPoolFile, info.Quarantined)
		}
		f.pool = pool
	}
	if f.Serve == "" {
		return nil
	}
	addr, shutdown, err := obshttp.Serve(f.Serve, f.Tracer(), f.Journal(), f.Ledger(), f.Kills())
	if err != nil {
		return fmt.Errorf("%s: -serve %s: %w", f.prog, f.Serve, err)
	}
	f.shutdown = shutdown
	fmt.Fprintf(os.Stderr, "%s: observability server on http://%s\n", f.prog, addr)
	return nil
}

// Finish stops the server (it lives for the duration of the run) and
// writes every requested export: the Chrome trace file, the stderr
// summary, the JSONL journal, and the explain report. The first error is
// returned after all exports are attempted.
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
	if f.CexPoolFile != "" {
		if f.pool == nil {
			f.pool = obs.NewCexPool()
		}
		// No Absorb here: the pool is wired into synthesis via Pool(),
		// so every kill this run produced was already recorded live
		// (absorbing the kill table again would double-count them).
		keep(f.pool.Flush(f.CexPoolFile))
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
