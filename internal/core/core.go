// Package core orchestrates the FACC pipeline (paper Fig. 4): candidate
// detection with the neural classifier, value profiling, binding/range/
// behavioral synthesis, generate-and-test IO fuzzing, and C adapter
// emission. The root facc package re-exports this as the public API.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/codegen"
	"facc/internal/gnn"
	"facc/internal/minic"
	"facc/internal/obs"
	"facc/internal/ojclone"
	"facc/internal/progml"
	"facc/internal/synth"
)

// Classifier wraps the trained GCN used for candidate detection. A nil
// Classifier makes the pipeline consider every function (pure
// generate-and-test, no search-space pruning).
type Classifier struct {
	Model    *gnn.GCN
	FFTClass int
	TopK     int // paper default: 3
}

// TrainClassifier builds the OJClone-style dataset and trains the
// ProGraML-based classifier with the paper's protocol.
func TrainClassifier(perClass int, seed int64) (*Classifier, error) {
	ds, err := ojclone.Build(perClass, seed)
	if err != nil {
		return nil, err
	}
	model := gnn.Fit(ds.Graphs, ds.NumClasses(), gnn.TrainConfig{Seed: seed})
	return &Classifier{Model: model, FFTClass: ds.FFTClass, TopK: 3}, nil
}

// CandidateFunctions returns the functions of f the classifier labels FFT
// within its top-k, most-confident first. Helper functions reachable only
// as callees of another candidate are filtered (the region rooted at the
// caller subsumes them).
func (c *Classifier) CandidateFunctions(f *minic.File) []string {
	type scored struct {
		name string
		p    float64
	}
	var out []scored
	for _, fn := range f.Funcs {
		if fn.Body == nil {
			continue
		}
		g := progml.BuildRegionGraph(f, fn)
		probs := c.Model.Predict(g)
		top := c.Model.TopK(g, c.TopK)
		for _, cls := range top {
			if cls == c.FFTClass {
				out = append(out, scored{fn.Name, probs[c.FFTClass]})
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].p != out[j].p {
			return out[i].p > out[j].p
		}
		return out[i].name < out[j].name
	})
	names := make([]string, len(out))
	for i, s := range out {
		names[i] = s.name
	}
	return names
}

// Options configures a compilation.
type Options struct {
	// Entry pins the function to compile; empty means "use the
	// classifier" (or all functions when no classifier is set).
	Entry string
	// ProfileValues is the value-profiling environment: observed values
	// per scalar parameter name.
	ProfileValues map[string][]int64
	// Synth forwards engine options (test count, tolerance, ablations).
	Synth synth.Options
	// Classifier used for candidate detection (may be nil).
	Classifier *Classifier
	// AllRegions compiles every candidate region instead of stopping at
	// the first success (Fig. 1 replaces each detected FFT).
	AllRegions bool
	// Trace, when non-nil, receives hierarchical spans for every pipeline
	// stage (parse, typecheck, classify, analyze, binding, per-candidate
	// fuzzing, codegen) plus interpreter/accelerator metrics. Nil disables
	// hot-path instrumentation entirely; stage timings are still measured
	// internally so Elapsed fields stay populated.
	Trace *obs.Tracer
	// Events, when non-nil, records the candidate-event stream: every
	// candidate's lifecycle from emission through pruning, fuzz verdict
	// (with counterexample, kill attribution and the work it cost) and
	// acceptance. Render it with obs.Events.WriteReport, WriteCostReport
	// or WriteSearchReport, or export it as JSONL. Nil costs nothing.
	Events *obs.Events
}

// FunctionResult is the outcome for one candidate region.
type FunctionResult struct {
	Function string
	Result   *synth.Result
	AdapterC string // non-empty on success
	Elapsed  time.Duration
}

// Compilation is the outcome of compiling one translation unit to one
// target.
type Compilation struct {
	Target *accel.Spec
	// File is the checked file, shared with every compile on the same
	// oracle cache: read-only.
	File      *minic.File
	Functions []*FunctionResult
	Elapsed   time.Duration
}

// Success returns the first successful function result, or nil.
func (c *Compilation) Success() *FunctionResult {
	for _, fr := range c.Functions {
		if fr.AdapterC != "" {
			return fr
		}
	}
	return nil
}

// FailReason summarizes why nothing compiled (Fig. 8 categories), or ""
// on success.
func (c *Compilation) FailReason() string {
	if c.Success() != nil {
		return ""
	}
	if len(c.Functions) == 0 {
		return "no-candidate-region"
	}
	// Report the most specific reason among candidates: printf/void*/
	// nested-memory beat generic interface incompatibility.
	reason := ""
	for _, fr := range c.Functions {
		r := fr.Result.FailReason
		switch r {
		case "printf", "void-pointer", "nested-memory":
			return r
		case "":
		default:
			if reason == "" {
				reason = r
			}
		}
	}
	if reason == "" {
		reason = "interface-incompatibility"
	}
	return reason
}

// BuildProfile converts an observed-values table into a Profile.
func BuildProfile(values map[string][]int64) *analysis.Profile {
	if values == nil {
		return nil
	}
	p := analysis.NewProfile()
	for name, vals := range values {
		for _, v := range vals {
			p.ObserveInt(name, v)
		}
	}
	return p
}

// CompileSource parses, checks and compiles MiniC source against a
// target. The checked file comes from opts.Synth.Oracle, or from a
// private cache made for this compile and handed down to synthesis, so
// compiles sharing a cache parse and check a source once and share one
// read-only *minic.File (Compilation.File). ctx (nil means Background)
// cancels the pipeline between and inside candidate evaluations.
func CompileSource(ctx context.Context, name, src string, spec *accel.Spec, opts Options) (*Compilation, error) {
	if opts.Synth.Oracle == nil {
		opts.Synth.Oracle = synth.NewOracleCache()
	}
	fsp := opts.Trace.Span("frontend").SetTrace(obs.TraceIDFrom(ctx)).Str("file", name)
	f, err := opts.Synth.Oracle.File(name, src, fsp)
	fsp.End()
	if err != nil {
		return nil, err
	}
	return compileFile(ctx, f, spec, opts)
}

// compileFile runs the pipeline on a checked file. All stage timings —
// including the Elapsed fields of the result — derive from tracer spans;
// when opts.Trace is nil a private tracer supplies them, and the per-test
// hot path inside synth runs uninstrumented. ctx (nil means Background)
// cancels the pipeline; the error then wraps ctx.Err().
func compileFile(ctx context.Context, f *minic.File, spec *accel.Spec, opts Options) (*Compilation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tr := opts.Trace
	traced := tr != nil
	if tr == nil {
		tr = obs.New() // timing-only fallback; never reaches the fuzz loop
	}
	if traced {
		spec.Instrument(tr.Metrics())
	}
	// A trace ID on the context scopes every span and event of this
	// compilation to the originating request.
	trace := obs.TraceIDFrom(ctx)
	opts.Events = opts.Events.Scoped(trace)
	root := tr.Span("compile").SetTrace(trace).
		Str("file", f.Name).Str("target", spec.Name)
	if opts.Events != nil {
		opts.Events.Record(obs.Event{Kind: obs.KindCompile, Target: spec.Name,
			Detail: f.Name + " → " + spec.Name})
	}
	comp := &Compilation{Target: spec, File: f}

	csp := root.Child("classify")
	var candidates []string
	switch {
	case opts.Entry != "":
		candidates = []string{opts.Entry}
	case opts.Classifier != nil:
		candidates = opts.Classifier.CandidateFunctions(f)
	default:
		for _, fn := range f.Funcs {
			if fn.Body != nil {
				candidates = append(candidates, fn.Name)
			}
		}
	}
	csp.Int("candidates", int64(len(candidates))).End()

	profile := BuildProfile(opts.ProfileValues)
	for _, name := range candidates {
		if err := ctx.Err(); err != nil {
			root.End()
			return nil, fmt.Errorf("core: compilation cancelled: %w", err)
		}
		fn := f.Func(name)
		if fn == nil {
			root.End()
			return nil, fmt.Errorf("core: no function %q", name)
		}
		ssp := root.Child("synthesize").Str("function", name)
		sopts := opts.Synth
		sopts.Events = opts.Events
		if traced {
			sopts.Obs = ssp
		}
		res, err := synth.Synthesize(ctx, f, fn, spec, profile, sopts)
		if err != nil {
			ssp.End()
			root.End()
			return nil, err
		}
		fr := &FunctionResult{Function: name, Result: res}
		if res.Adapter != nil {
			gsp := ssp.Child("codegen")
			fr.AdapterC = codegen.Prelude() + codegen.Extern(spec) + "\n" +
				codegen.Emit(res.Adapter, fn)
			gsp.End()
		}
		fr.Elapsed = ssp.End()
		comp.Functions = append(comp.Functions, fr)
		outcome := "rejected"
		if fr.AdapterC != "" {
			outcome = "replaced"
		}
		opts.Events.Record(obs.Event{Kind: obs.KindResult,
			Function: name, Target: spec.Name, Outcome: outcome, Heuristic: res.FailReason})
		if fr.AdapterC != "" && !opts.AllRegions {
			break // drop-in replacement found; stop at the best candidate
		}
	}
	comp.Elapsed = root.End()
	return comp, nil
}

// TotalCandidates sums the binding candidates enumerated across every
// attempted function (the Fig. 16 search-space measure for the whole
// translation unit).
func (c *Compilation) TotalCandidates() int {
	n := 0
	for _, fr := range c.Functions {
		if fr.Result != nil {
			n += fr.Result.Candidates
		}
	}
	return n
}

// IntegratedUnit renders the whole application with acceleration woven in
// (paper Fig. 1): call sites of each replaced function are rewritten to
// its adapter, the originals stay (the fallback path needs them), and the
// adapters are appended. The result is a complete C translation unit.
func (c *Compilation) IntegratedUnit() (string, error) {
	successes := c.Successes()
	if len(successes) == 0 {
		return "", fmt.Errorf("core: nothing compiled; no unit to integrate")
	}
	// Re-parse for a private AST to mutate.
	f, err := minic.Parse(c.File.Name, minic.PrintFile(c.File))
	if err != nil {
		return "", fmt.Errorf("core: reprint: %w", err)
	}
	if err := minic.Check(f); err != nil {
		return "", fmt.Errorf("core: recheck: %w", err)
	}
	var adapters strings.Builder
	for _, s := range successes {
		codegen.RewriteCalls(f, s.Function, s.Function+"_accel")
		body := s.AdapterC
		// Strip the shared prelude from all but the first adapter.
		if adapters.Len() > 0 {
			if idx := strings.Index(body, "/* Drop-in replacement"); idx >= 0 {
				body = body[idx:]
			}
		}
		adapters.WriteString(body)
		adapters.WriteString("\n")
	}
	unit := minic.PrintFile(f) + "\n" + adapters.String()
	// The integrated unit must still be valid (prototypes for adapters
	// appear after their call sites, which MiniC resolves file-wide).
	if _, err := minic.ParseAndCheck(c.File.Name+".integrated", unit); err != nil {
		return "", fmt.Errorf("core: integrated unit invalid: %w", err)
	}
	return unit, nil
}

// Successes returns every function that compiled (AllRegions mode).
func (c *Compilation) Successes() []*FunctionResult {
	var out []*FunctionResult
	for _, fr := range c.Functions {
		if fr.AdapterC != "" {
			out = append(out, fr)
		}
	}
	return out
}
