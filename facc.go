// Package facc is the public API of the FACC reproduction — a compiler
// that maps legacy C code to Fourier-transform accelerators by
// synthesizing drop-in replacement adapters (Woodruff et al., "Bind the
// Gap: Compiling Real Software to Hardware FFT Accelerators", PLDI 2022).
//
// The pipeline: a neural classifier over program graphs finds candidate
// FFT regions (code mismatch); binding synthesis maps user variables to
// accelerator parameters (data mismatch); range-check generation guards
// the accelerator's domain with a software fallback (domain mismatch);
// sketch-based behavioral synthesis patches normalization/ordering
// differences (behavior mismatch); and IO-based generate-and-test fuzzing
// picks the unique adapter that is observationally equivalent to the
// original code.
//
// Quick start:
//
//	res, err := facc.Compile("fft.c", source, facc.TargetFFTA, facc.Options{
//	    ProfileValues: map[string][]int64{"n": {64, 256, 1024}},
//	})
//	if err != nil { ... }
//	if res.OK() {
//	    fmt.Println(res.AdapterC())
//	}
package facc

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"facc/internal/accel"
	"facc/internal/bench"
	"facc/internal/binding"
	"facc/internal/core"
	"facc/internal/iogen"
	"facc/internal/obs"
	"facc/internal/synth"
)

// Compilation targets.
const (
	// TargetFFTA is the Analog Devices FFTA hardware accelerator
	// (power-of-two 64..65536, normalized output, 64-byte alignment).
	TargetFFTA = "ffta"
	// TargetPowerQuad is the NXP PowerQuad accelerator (power-of-two
	// 16..4096, un-normalized).
	TargetPowerQuad = "powerquad"
	// TargetFFTW is the FFTW-style optimized software library (any
	// length, direction and planner-flag parameters).
	TargetFFTW = "fftw"
)

// Options tunes a compilation. The zero value uses paper defaults: 10 IO
// tests per candidate, all functions considered (or the classifier when
// set), no ablations.
type Options struct {
	// Entry pins the function to compile. Empty = detect candidates.
	Entry string
	// ProfileValues is the value-profiling environment: the values each
	// scalar parameter takes in the host application. Without it FACC
	// falls back to fuzzing the accelerator's full domain, which rejects
	// user code with narrower domains (exactly as in the paper).
	ProfileValues map[string][]int64
	// Classifier enables neural candidate detection (see Train).
	Classifier *Classifier
	// NumTests overrides the IO examples per candidate (default 10).
	NumTests int
	// Workers bounds case-level parallelism inside generate-and-test:
	// candidates are tested one at a time, and the current candidate's IO
	// cases run on up to Workers goroutines (never more than GOMAXPROCS),
	// each reference run going
	// through a memoized oracle (the user program's outputs are
	// interpreted once per distinct test case and reused across
	// candidates). The generated adapter, the Result counts, the fuzz
	// verdicts and their kill attribution are deterministic — identical for
	// every Workers value. 0 (the default) means GOMAXPROCS; 1 runs every
	// case inline, in sequence.
	Workers int
	// Tolerance overrides the comparison tolerance (default 2e-3,
	// norm-scaled).
	Tolerance float64
	// DisableRangeHeuristic / DisableSingleRead are the ablation
	// switches from DESIGN.md.
	DisableRangeHeuristic bool
	DisableSingleRead     bool
	// Trace, when non-nil, records hierarchical spans for every pipeline
	// stage (parse → typecheck → classify → analyze → binding →
	// per-candidate fuzzing → codegen) plus interpreter and accelerator
	// metrics. Export with obs's Chrome-trace/JSONL/summary writers. Nil
	// (the default) keeps the synthesis hot path uninstrumented — zero
	// extra allocations in the fuzz loop.
	Trace *Tracer
	// Events, when non-nil, records the candidate-event stream — each
	// binding candidate's lifecycle (emitted, pruned with the heuristic
	// that killed it, fuzz verdict with counterexample, the IO case that
	// killed it and the work it cost, accepted). Three reports fold it:
	// Events.WriteReport ("why was / wasn't this adapter synthesised",
	// `facc -explain`), Events.WriteCostReport (the cost ledger: useful
	// work on the winner versus speculative waste on killed losers, and
	// work shared through oracle hits; `facc -costs`) and
	// Events.WriteSearchReport (the search observatory: the generated →
	// pre-filtered → dispatched → killed/survived → winner funnel and the
	// most discriminating IO cases; `facc -search-report`). Export it
	// with Events.WriteJSONL. Nil (the default) costs nothing.
	Events *Events
	// Oracle, when non-nil, is a shared reference-oracle cache. Oracle
	// keys are target-independent (the user program's output does not
	// depend on which accelerator we bind to), so one cache passed to
	// compiles of the same source against ffta, powerquad and fftw
	// interprets each distinct reference run once and shares it across
	// all three. The cache also holds the generated test inputs behind
	// those runs and their case digests, the checked file of each source,
	// and each function's analysis facts and file digest, so the later
	// compiles reuse the first one's work instead of parsing, checking,
	// analysing, drawing and hashing again. Compiles sharing a cache
	// share one *minic.File per source (Result.Raw().File), which is
	// read-only. Sharing is exact for any mix of compiles — targets,
	// tolerances, test counts, profiles, programs — so a service may hand
	// one cache to every request; faccd does, and replaces it when
	// OracleCache.Bytes passes its budget. Nil (the default) gives each
	// compile a private cache — candidates within one compile still
	// share.
	Oracle *OracleCache

	// Deadline bounds the whole compilation's wall clock: past it the
	// pipeline stops promptly (the interpreter polls it inside each fuzz
	// run) and Compile returns an error wrapping
	// context.DeadlineExceeded. Zero means no deadline. Callers that
	// already hold a context should use CompileContext instead.
	Deadline time.Duration
	// CandidateTimeout bounds fuzzing one binding candidate. A candidate
	// that exceeds it is rejected (a "timeout" fuzz verdict)
	// and synthesis moves to the next candidate — a hung candidate costs
	// one candidate, not the compile. Zero disables the budget.
	CandidateTimeout time.Duration
}

// Tracer collects hierarchical spans and metrics across a compilation; see
// NewTracer. Safe for concurrent use by parallel compilations.
type Tracer = obs.Tracer

// NewTracer returns an empty tracer to pass via Options.Trace.
func NewTracer() *Tracer { return obs.New() }

// Events is the candidate-event stream; see Options.Events.
type Events = obs.Events

// NewEvents returns an empty stream to pass via Options.Events.
func NewEvents() *Events { return obs.NewEvents() }

// OracleCache is the shared cache of a program's target-independent
// compile work: reference runs, test inputs and their digests, the
// checked file and per-function facts; see Options.Oracle. It keeps
// everything until it is dropped; Bytes reports how much it holds.
type OracleCache = synth.OracleCache

// NewOracleCache returns an empty oracle cache to pass via
// Options.Oracle across compiles of one source against several targets.
func NewOracleCache() *OracleCache { return synth.NewOracleCache() }

// Classifier is the trained ProGraML-style candidate detector.
type Classifier = core.Classifier

// Train trains the classifier on the OJClone-style dataset with the given
// instances per class (the paper uses 20).
func Train(perClass int, seed int64) (*Classifier, error) {
	return core.TrainClassifier(perClass, seed)
}

// Result is the outcome of a compilation.
type Result struct {
	c *core.Compilation
}

// Compile compiles MiniC source against a named target.
func Compile(name, source, target string, opts Options) (*Result, error) {
	return CompileContext(context.Background(), name, source, target, opts)
}

// CompileRequest is the service-facing description of one compilation —
// everything a remote client may vary per request, in a form that can be
// serialized, validated, and content-addressed. It is the unit of work
// faccd admits, deduplicates (identical in-flight requests share one
// compile) and memoizes in the crash-safe adapter store.
type CompileRequest struct {
	// Name labels the source in diagnostics (a file name). It does not
	// affect the synthesized adapter and is excluded from Digest, so two
	// clients uploading the same source under different names share one
	// cache entry.
	Name string `json:"name,omitempty"`
	// Source is the MiniC translation unit to compile.
	Source string `json:"source"`
	// Target names the accelerator (ffta, powerquad, fftw).
	Target string `json:"target"`
	// Entry pins the function to compile; empty = detect candidates.
	Entry string `json:"entry,omitempty"`
	// ProfileValues is the value-profiling environment (Options.ProfileValues).
	ProfileValues map[string][]int64 `json:"profile,omitempty"`
	// NumTests overrides the IO examples per candidate (0 = default 10).
	NumTests int `json:"tests,omitempty"`
	// Tolerance overrides the comparison tolerance (0 = default 2e-3).
	Tolerance float64 `json:"tolerance,omitempty"`
}

// Validate rejects requests the pipeline could not act on, with messages
// fit to return to a remote caller verbatim.
func (r *CompileRequest) Validate() error {
	if strings.TrimSpace(r.Source) == "" {
		return fmt.Errorf("empty source")
	}
	if r.Target == "" {
		return fmt.Errorf("missing target (one of: %s)", strings.Join(Targets(), ", "))
	}
	if _, err := accel.SpecByName(r.Target); err != nil {
		return fmt.Errorf("unknown target %q (one of: %s)", r.Target, strings.Join(Targets(), ", "))
	}
	if r.NumTests < 0 {
		return fmt.Errorf("tests must be >= 0, got %d", r.NumTests)
	}
	if r.Tolerance < 0 {
		return fmt.Errorf("tolerance must be >= 0, got %g", r.Tolerance)
	}
	return nil
}

// Digest returns the request's content address: a hex SHA-256 over every
// field that can change the synthesized adapter (source, target, entry,
// profile values, test count, tolerance — not Name). Equal digests mean
// a cached or in-flight result can be reused byte for byte.
func (r *CompileRequest) Digest() string {
	h := sha256.New()
	put := func(field, val string) {
		binary.Write(h, binary.LittleEndian, int64(len(field)))
		h.Write([]byte(field))
		binary.Write(h, binary.LittleEndian, int64(len(val)))
		h.Write([]byte(val))
	}
	put("source", r.Source)
	put("target", r.Target)
	put("entry", r.Entry)
	put("tests", fmt.Sprint(r.NumTests))
	put("tolerance", fmt.Sprint(r.Tolerance))
	keys := make([]string, 0, len(r.ProfileValues))
	for k := range r.ProfileValues {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		put("profile."+k, fmt.Sprint(r.ProfileValues[k]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CompileRequestContext compiles one service request under ctx. Request
// fields override the matching Options fields; everything else (workers,
// budgets, tracing) comes from opts — the server's standing
// configuration.
func CompileRequestContext(ctx context.Context, req CompileRequest, opts Options) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	opts.Entry = req.Entry
	opts.ProfileValues = req.ProfileValues
	if req.NumTests > 0 {
		opts.NumTests = req.NumTests
	}
	if req.Tolerance > 0 {
		opts.Tolerance = req.Tolerance
	}
	name := req.Name
	if name == "" {
		name = "request.c"
	}
	return CompileContext(ctx, name, req.Source, req.Target, opts)
}

// CompileContext compiles MiniC source against a named target under ctx:
// cancel it (or let Options.Deadline expire) and the pipeline stops
// promptly — between candidates, between IO cases, and inside the
// interpreter's step loop — returning an error that wraps ctx.Err().
func CompileContext(ctx context.Context, name, source, target string, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
	}
	spec, err := accel.SpecByName(target)
	if err != nil {
		return nil, err
	}
	comp, err := core.CompileSource(ctx, name, source, spec, core.Options{
		Entry:         opts.Entry,
		ProfileValues: opts.ProfileValues,
		Classifier:    opts.Classifier,
		Trace:         opts.Trace,
		Events:        opts.Events,
		Synth: synth.Options{
			NumTests:         opts.NumTests,
			Tolerance:        opts.Tolerance,
			CandidateTimeout: opts.CandidateTimeout,
			Workers:          opts.Workers,
			Oracle:           opts.Oracle,
			Binding:          bindingOptions(opts),
		},
	})
	if err != nil {
		return nil, err
	}
	return &Result{c: comp}, nil
}

func bindingOptions(opts Options) binding.Options {
	return binding.Options{
		DisableRangeHeuristic: opts.DisableRangeHeuristic,
		DisableSingleRead:     opts.DisableSingleRead,
	}
}

// OK reports whether an adapter was synthesized.
func (r *Result) OK() bool { return r.c.Success() != nil }

// AdapterC returns the generated drop-in replacement C source, or "".
func (r *Result) AdapterC() string {
	if s := r.c.Success(); s != nil {
		return s.AdapterC
	}
	return ""
}

// Function returns the name of the replaced function, or "".
func (r *Result) Function() string {
	if s := r.c.Success(); s != nil {
		return s.Function
	}
	return ""
}

// Sig returns the user-visible signature of the replaced function — the
// iogen.UserSig of the winning binding candidate (spec, argument roles,
// length binding, direction). Two requests with the same Sig asked for
// the same adapter shape; faccd persists it so the store's by-signature
// index can answer "every cached adapter with this shape" in one walk.
// Returns "" when the compilation did not succeed.
func (r *Result) Sig() string {
	s := r.c.Success()
	if s == nil || s.Result == nil || s.Result.Adapter == nil || s.Result.Adapter.Cand == nil {
		return ""
	}
	return iogen.UserSig(s.Result.Adapter.Cand)
}

// FailReason classifies an unsuccessful compilation (Fig. 8 categories:
// printf, void-pointer, nested-memory, interface-incompatibility), or "".
func (r *Result) FailReason() string { return r.c.FailReason() }

// Candidates returns the number of binding candidates enumerated across
// every attempted function — the Fig. 16 metric for the whole translation
// unit.
func (r *Result) Candidates() int { return r.c.TotalCandidates() }

// Report renders a per-function compilation report: candidates
// enumerated, fuzz-tested, survivors, the winning binding, and timing —
// the transparency a developer signing off on a replacement needs.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "target: %s (%s)\n", r.c.Target.Name, r.c.Target.DomainDescription())
	for _, fr := range r.c.Functions {
		status := "rejected"
		if fr.AdapterC != "" {
			status = "replaced"
		}
		fmt.Fprintf(&b, "%-20s %-9s candidates=%d tested=%d survivors=%d time=%s",
			fr.Function, status, fr.Result.Candidates, fr.Result.Tested,
			fr.Result.Survivors, fmtDuration(fr.Elapsed))
		if fr.Result.Adapter != nil {
			fmt.Fprintf(&b, "\n%-20s binding: %s; post: %s; check: %s",
				"", fr.Result.Adapter.Cand.Key(), fr.Result.Adapter.Post,
				fr.Result.Adapter.Check.CCondition("len"))
		} else if fr.Result.FailReason != "" {
			fmt.Fprintf(&b, " reason=%s", fr.Result.FailReason)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// fmtDuration renders a stage duration at microsecond resolution:
// synthesis stages routinely finish in well under a millisecond, where
// time.Duration.Round(time.Millisecond) prints an unhelpful "0s".
func fmtDuration(d time.Duration) string {
	if d < time.Second {
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// IntegratedUnit renders the whole translation unit with acceleration
// woven in (paper Fig. 1): call sites rewritten to the adapter, the
// original function kept for the fallback path, adapters appended.
func (r *Result) IntegratedUnit() (string, error) { return r.c.IntegratedUnit() }

// Raw exposes the underlying compilation for advanced inspection.
func (r *Result) Raw() *core.Compilation { return r.c }

// Migration is a validated library→accelerator adapter (the paper's §10
// direction: users who already restructured around a library keep
// benefiting from new hardware).
type Migration = core.Migration

// Migrate synthesizes an adapter implementing the `from` target's API via
// the `to` target, fuzz-validated on the domain overlap. Example:
// Migrate(TargetFFTW, TargetFFTA) yields an fftw_call replacement that
// runs forward power-of-two transforms on the FFTA (denormalizing its
// output) and falls back to the library otherwise.
func Migrate(from, to string) (*Migration, error) {
	fs, err := accel.SpecByName(from)
	if err != nil {
		return nil, err
	}
	ts, err := accel.SpecByName(to)
	if err != nil {
		return nil, err
	}
	return core.MigrateLibrary(fs, ts, 10, 1)
}

// Benchmark re-exports one corpus program.
type Benchmark = bench.Benchmark

// Corpus returns the paper's 25-program benchmark suite.
func Corpus() []*Benchmark { return bench.Suite() }

// CorpusBenchmark finds a corpus program by name.
func CorpusBenchmark(name string) (*Benchmark, error) { return bench.ByName(name) }

// Targets lists the available target names.
func Targets() []string {
	var out []string
	for _, s := range accel.Specs() {
		out = append(out, s.Name)
	}
	return out
}

// String renders a one-line summary.
func (r *Result) String() string {
	if r.OK() {
		return fmt.Sprintf("facc: replaced %s with %s adapter (%d candidates considered)",
			r.Function(), r.c.Target.Name, r.Candidates())
	}
	return fmt.Sprintf("facc: no adapter (%s)", r.FailReason())
}
