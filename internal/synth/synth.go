// Package synth is FACC's generate-and-test engine (paper §6). It combines
// binding candidates (§5.1), range checks (§5.2) and behavioral sketches
// (§5.3) into candidate adapters, executes the user code in the MiniC
// interpreter against each candidate on random IO examples, and returns the
// unique surviving adapter. Interpreter faults under a candidate (the
// AddressSanitizer role) reject that candidate.
package synth

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/behave"
	"facc/internal/binding"
	"facc/internal/fft"
	"facc/internal/interp"
	"facc/internal/iogen"
	"facc/internal/minic"
	"facc/internal/obs"
	"facc/internal/rangecheck"
)

// Adapter is a validated drop-in replacement: the winning binding, the
// synthesized range check, and the post-behavioral patch.
type Adapter struct {
	FuncName string
	Cand     *binding.Candidate
	Check    *rangecheck.Check
	Post     behave.PostOp

	// ReturnConst is the learned constant return value for non-void user
	// functions (nil when the function returns void).
	ReturnConst *int64

	TestsPassed int
}

// Result reports a synthesis run.
type Result struct {
	Adapter *Adapter // nil when no candidate survived

	Candidates  int // bindings enumerated (paper Fig. 16)
	Tested      int // bindings actually fuzz-tested before success
	Survivors   int // bindings that passed all tests (ties broken by priority)
	TestsPerRun int
	FailReason  string // classification when Adapter == nil
}

// Options tunes the engine.
type Options struct {
	NumTests  int     // IO examples per candidate (default 10)
	Tolerance float64 // relative comparison tolerance (default 1e-3)
	Seed      int64
	Binding   binding.Options
	// CandidateTimeout is the wall-clock budget for fuzzing one candidate
	// (the interpreter polls it alongside its step fuel). A candidate that
	// exceeds it is rejected with a "timeout" verdict and synthesis moves
	// on — one hung candidate costs one candidate, not the compile. Zero
	// disables the per-candidate budget.
	CandidateTimeout time.Duration
	// ExhaustAll tests every candidate instead of stopping at the first
	// survivor; Result.Survivors then counts all of them, and the first
	// survivor in enumeration order is still the adapter.
	ExhaustAll bool
	// Workers bounds case-level parallelism: candidates are tested one at
	// a time in enumeration order, and the current candidate's IO cases
	// run on up to Workers goroutines — never more than GOMAXPROCS — each
	// on a pooled interpreter machine. 0 (the default) means GOMAXPROCS;
	// 1 runs every case inline on the candidate's goroutine. The per-case
	// results are resolved in case order, so the Result, the adapter and
	// every event's verdict and kill attribution are identical for every
	// Workers value; only metrics and the events' work fields (cases
	// started, steps, oracle hits and misses) count the cases run past a
	// kill.
	Workers int
	// Obs is the enclosing pipeline span: analysis, binding enumeration,
	// per-candidate fuzzing and range-check synthesis report as children
	// of it. Nil (the default) disables tracing with zero overhead — no
	// allocations — on the generate-and-test hot path.
	Obs *obs.Span
	// Events, when non-nil, records each candidate's lifecycle — gate
	// verdicts, emitted/pruned bindings, one fuzz event per tested
	// candidate (its verdict, the first counterexample input and the
	// discriminating IO case on failure, and the work its started cases
	// cost), the accepted adapter and the function's oracle lookups. The
	// provenance report, the cost ledger and the search observatory are
	// folds over it. Every call site renders keys only behind a nil
	// check, so nil (the default) allocates nothing on the hot path.
	Events *obs.Events
	// Oracle, when non-nil, is a shared reference-run cache: its keys
	// are target-independent (see OracleCache), so one cache handed to
	// the ffta, powerquad and fftw compiles of the same program
	// interprets each distinct user-side run once instead of three
	// times. It also holds the generated test inputs and their case
	// digests (every candidate's generator draws through its iogen.Memo),
	// each function's analysis.FuncInfo and FileDigest, and the checked
	// file of each source (OracleCache.File), so those compiles do each
	// of these steps once. Compiles sharing a cache share one read-only
	// *minic.File per source. Nil builds a private per-call cache, shared
	// only by this call's candidates. Sharing never changes results: an
	// entry's value, and a kept draw, is a pure function of its key.
	Oracle *OracleCache
}

func (o *Options) defaults() {
	if o.NumTests == 0 {
		o.NumTests = 10
	}
	if o.Tolerance == 0 {
		o.Tolerance = 2e-3
	}
	if o.Seed == 0 {
		o.Seed = 424242
	}
}

// Synthesize builds an adapter binding fn (in file f) to spec. ctx
// cancels the whole run: it is checked between candidates and polled by
// the interpreter inside each one, so cancellation returns promptly with
// an error wrapping ctx.Err().
func Synthesize(ctx context.Context, f *minic.File, fn *minic.FuncDecl,
	spec *accel.Spec, profile *analysis.Profile, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.defaults()
	cache := opts.Oracle
	if cache == nil {
		cache = NewOracleCache()
	}
	opts.Events.Record(obs.Event{Kind: obs.KindFunction,
		Function: fn.Name, Target: spec.Name, Detail: spec.Name})
	asp := opts.Obs.Child("analyze")
	fi := cache.funcInfo(f, fn)
	asp.End()
	res := &Result{TestsPerRun: opts.NumTests}
	gate := ""
	switch {
	case fi.CallsPrintf:
		gate = "printf"
	case fi.UsesVoidPtr:
		gate = "void-pointer"
	case fi.NestedPointer:
		gate = "nested-memory"
	}
	if gate != "" {
		res.FailReason = gate
		opts.Events.Record(obs.Event{Kind: obs.KindGate,
			Function: fn.Name, Target: spec.Name, Heuristic: gate})
		return res, nil
	}
	bopts := opts.Binding
	bopts.Events = opts.Events
	if opts.Obs != nil {
		bopts.Obs = opts.Obs.Metrics()
	}
	bsp := opts.Obs.Child("binding")
	cands := binding.Enumerate(fi, spec, profile, bopts)
	bsp.Int("candidates", int64(len(cands))).End()
	res.Candidates = len(cands)
	if len(cands) == 0 {
		res.FailReason = "interface-incompatibility"
		return res, nil
	}
	// A case goroutine past GOMAXPROCS would add an interpreter machine,
	// not parallelism.
	workers := opts.Workers
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
	}
	var reg *obs.Registry
	if opts.Obs != nil {
		reg = opts.Obs.Metrics()
	}
	orc := newOracle(f, fn, spec.Name, workers, reg, cache)
	var winner *Adapter
	for i, cand := range cands {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("synth: %s: %w", fn.Name, err)
		}
		var fsp *obs.Span
		if opts.Obs != nil {
			fsp = opts.Obs.Child("fuzz").Str("binding", cand.Key()).Int("candidate", int64(i+1))
		}
		ad, err := evalCandidate(ctx, fn, cand, profile, opts, fsp, orc)
		fsp.End()
		if err != nil {
			return nil, err
		}
		res.Tested++
		if ad == nil {
			continue
		}
		res.Survivors++
		if winner == nil {
			winner = ad
		}
		if !opts.ExhaustAll {
			break
		}
	}
	if hits, misses, rate := orc.stats(); opts.Events != nil && hits+misses > 0 {
		opts.Events.Record(obs.Event{Kind: obs.KindOracle,
			Function: fn.Name, Target: spec.Name, OracleHits: hits, OracleMisses: misses,
			Detail: fmt.Sprintf("reference runs: %d hits, %d misses (%.0f%% hit rate)",
				hits, misses, 100*rate)})
	}
	if opts.Obs != nil {
		m := opts.Obs.Metrics()
		m.Counter("synth.candidates_tested").Add(int64(res.Tested))
		m.Counter("synth.survivors").Add(int64(res.Survivors))
	}
	if winner == nil {
		res.FailReason = "interface-incompatibility"
		return res, nil
	}
	rsp := opts.Obs.Child("rangecheck")
	winner.Check = rangecheck.Build(winner.Cand, profile)
	rsp.End()
	res.Adapter = winner
	opts.Obs.Metrics().Counter("synth.winners").Inc()
	if opts.Events != nil {
		// The cost ledger books the winner's work as useful, every other
		// candidate's as waste against it.
		opts.Events.Record(obs.Event{Kind: obs.KindAccepted,
			Function: fn.Name, Target: spec.Name, Candidate: winner.Cand.Key(),
			Tests: winner.TestsPassed,
			Detail: fmt.Sprintf("post=%s; check=%s", winner.Post,
				winner.Check.CCondition(lenCExpr(winner.Cand.Length)))})
	}
	return res, nil
}

// lenCExpr renders a length binding as the C expression the generated
// adapter guards on (mirrors codegen's lengthExpr), so "accepted" events
// show the range check in the user's own terms.
func lenCExpr(lb binding.LengthBinding) string {
	if lb.Param == "" {
		return fmt.Sprintf("%d", lb.Const)
	}
	if lb.Conv == binding.ConvExp2 {
		return fmt.Sprintf("(1 << %s)", lb.Param)
	}
	return lb.Param
}

// verdict is how one candidate's generate-and-test ended, in the cheap
// form its decision site has: record renders it into the candidate's
// fuzz event only when a stream is attached. The zero value is a
// candidate cut off by a compile cancellation, which has no verdict.
type verdict struct {
	outcome string
	tests   int // cases resolved when the verdict was reached
	detail  string
	// at is the 0-based index of the discriminating case, -1 when no
	// single case is; tc is that case when at >= 0, and cex says to
	// render it as the counterexample.
	at  int
	tc  *iogen.Case
	cex bool
}

// caseless is the verdict of a death no single case caused.
func caseless(outcome, detail string) verdict {
	return verdict{outcome: outcome, detail: detail, at: -1}
}

// killedAt is the verdict of a death at case at (tc), the last of the
// tests resolved: tc is the counterexample.
func killedAt(outcome string, tc *iogen.Case, at int, detail string) verdict {
	return verdict{outcome: outcome, tests: at + 1, detail: detail, at: at, tc: tc, cex: true}
}

// work is what a candidate's started cases cost. Every started case
// makes exactly one oracle lookup; those that did not hit missed.
type work struct {
	started, steps, hits int64
}

func (w *work) add(r *caseResult) {
	w.started++
	w.steps += r.steps
	if r.hit {
		w.hits++
	}
}

// record emits cand's fuzz event: its verdict v and the work w its
// started cases cost. With no stream it returns before rendering any key
// or text (or dereferencing cand), so the disabled path allocates
// nothing.
func record(opts Options, fn string, cand *binding.Candidate, v verdict, w work) {
	if opts.Events == nil {
		return
	}
	ev := obs.Event{Kind: obs.KindFuzz, Function: fn, Target: cand.Spec.Name,
		Candidate: cand.Key(), Outcome: v.outcome, Tests: v.tests, Detail: v.detail,
		Family: iogen.UserSig(cand), Seed: opts.Seed, Case: v.at,
		Started: w.started, Steps: w.steps, OracleHits: w.hits, OracleMisses: w.started - w.hits}
	if v.tc != nil {
		ev.CaseSig = iogen.CaseSig(opts.Seed, v.tc.AccelLen, v.at)
		ev.Len = v.tc.AccelLen
		if v.cex {
			ev.Counterexample = renderCase(*v.tc)
		}
	}
	if v.outcome != obs.OutcomeSurvived && v.tests > 0 {
		// The kill is attributable to the last case resolved (0-based
		// index tests-1); stamp the mismatch kind so -explain's "killed
		// by" line and the search observatory tell the same story.
		ev.Mismatch = v.outcome
		if v.outcome == "fault" {
			ev.Mismatch = v.detail // the fault kind, e.g. out-of-bounds
		}
	}
	opts.Events.Record(ev)
}

// renderCase renders a failing IO example compactly: the length binding's
// user and accelerator values, every scalar assignment (sorted), and the
// head of the input signal. Deterministic for fixed fuzz seeds.
func renderCase(tc iogen.Case) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", tc.UserLen)
	if tc.AccelLen != tc.UserLen {
		fmt.Fprintf(&b, " (accel_len=%d)", tc.AccelLen)
	}
	keys := make([]string, 0, len(tc.Scalars))
	for k := range tc.Scalars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, tc.Scalars[k])
	}
	fmt.Fprintf(&b, " input[%d]=", len(tc.Input))
	for i, v := range tc.Input {
		if i == 4 {
			b.WriteString("…")
			break
		}
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "(%.3g%+.3gi)", real(v), imag(v))
	}
	return b.String()
}

// evalCandidate runs one candidate's fuzz evaluation inside the fault
// boundary: a per-candidate deadline (opts.CandidateTimeout) and a panic
// shield. A candidate that times out or panics — in any of its case
// goroutines — is rejected with a "timeout"/"panic" verdict, and
// synthesis continues; only a cancellation of the enclosing runCtx
// aborts the whole run. Whichever way it ends, the candidate's fuzz
// event is recorded here, once.
func evalCandidate(runCtx context.Context, fn *minic.FuncDecl,
	cand *binding.Candidate, profile *analysis.Profile, opts Options,
	sp *obs.Span, orc *oracle) (ad *Adapter, err error) {
	cctx := runCtx
	if opts.CandidateTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(runCtx, opts.CandidateTimeout)
		defer cancel()
	}
	var v verdict
	var w work
	defer func() {
		if r := recover(); r != nil {
			// Panic isolation: a crashing candidate costs one candidate,
			// not the process. FaultPanic classifies it in provenance.
			ad, err = nil, nil
			sp.Str("outcome", "panic")
			if opts.Obs != nil {
				opts.Obs.Metrics().Counter("synth.panics").Inc()
			}
			v = caseless(interp.FaultPanic.String(), fmt.Sprintf("recovered: %v", r))
		}
		record(opts, fn.Name, cand, v, w)
	}()
	ad, v, err = testCandidate(cctx, fn, cand, profile, opts, sp, orc, &w)
	if err != nil && cancelled(err) {
		if cerr := runCtx.Err(); cerr != nil {
			// The compilation itself was cancelled — propagate.
			return nil, fmt.Errorf("synth: %s: %w", fn.Name, cerr)
		}
		// Only the per-candidate budget expired: reject this candidate.
		sp.Str("outcome", "timeout")
		if opts.Obs != nil {
			opts.Obs.Metrics().Counter("synth.candidate_timeouts").Inc()
		}
		v = caseless("timeout",
			fmt.Sprintf("candidate exceeded its %s budget", opts.CandidateTimeout))
		return nil, nil
	}
	return ad, err
}

// testCandidate fuzz-tests one binding candidate. It returns a validated
// adapter and the survivor's verdict, or nil and the kill's verdict when
// the candidate is behaviorally wrong or faults; a cancellation
// propagates so evalCandidate can distinguish a candidate timeout from a
// compilation cancel. w receives the work of every case started, on
// every exit path, panics included. sp (may be nil) receives
// test-count/outcome attributes; reference executions run on orc's
// shared machine pool, which attributes interpreter counters.
//
// At Workers=1 each case runs inline, in case order. Otherwise the
// cases run on a caseFan. Either way this goroutine resolves the
// results one at a time in case order, so the case that decides the
// candidate's fate is the one a sequential run meets, and the cases
// after it are dropped unseen.
func testCandidate(ctx context.Context, fn *minic.FuncDecl,
	cand *binding.Candidate, profile *analysis.Profile, opts Options,
	sp *obs.Span, orc *oracle, w *work) (*Adapter, verdict, error) {
	gen := orc.cache.memo.Generator(opts.Seed, cand, profile)
	if !gen.Viable() {
		sp.Str("outcome", "not-viable")
		return nil, caseless("not-viable", "no test sizes inside the accelerator domain"), nil
	}
	cases := gen.Cases(opts.NumTests)
	ref := gen.RefSig()

	// The metrics are charged with the cases begun, including those a
	// fan ran past the deciding one, on every exit path: it is the work
	// this candidate cost.
	if sp != nil {
		defer func() {
			sp.Int("tests", w.started)
			m := sp.Metrics()
			m.Counter("synth.tests_run").Add(w.started)
			m.Histogram("synth.tests_per_candidate", obs.CountBuckets).
				Observe(float64(w.started))
		}()
	}
	var fan *caseFan
	if n := min(orc.workers, len(cases)); n > 1 {
		fan = startCases(ctx, cand, ref, cases, orc, opts.Tolerance, n)
		defer func() { *w = fan.stop() }() // runs before the charge above
	}

	// All post-behavioral sketches start alive; each case prunes.
	alive := allSketches

	var returnVals []int64
	var returnCases []int // case index per returnVals entry
	sawReturn := false

	for caseIdx := range cases {
		tc := &cases[caseIdx]
		var r caseResult
		if fan != nil {
			r = fan.wait(caseIdx)
		} else {
			// An oracle hit never enters the interpreter, which is what
			// polls the deadline, so honor it between cases too.
			if err := ctx.Err(); err != nil {
				return nil, verdict{}, fmt.Errorf("synth: candidate evaluation cancelled: %w", err)
			}
			r = runCaseSafe(ctx, cand, ref, *tc, orc, alive, opts.Tolerance)
			w.add(&r)
			if r.panicked != nil {
				panic(r.panicked)
			}
		}
		if r.err != nil {
			if cancelled(r.err) {
				// Deadline/cancel, not evidence against the binding —
				// let evalCandidate classify it.
				return nil, verdict{}, r.err
			}
			// Interpreter fault (OOB, etc.) — wrong binding.
			fault := interp.FaultOf(r.err).String()
			sp.Str("outcome", "fault").Str("fault", fault)
			return nil, killedAt("fault", tc, caseIdx, fault), nil
		}
		if r.ret != nil {
			sawReturn = true
			returnVals = append(returnVals, *r.ret)
			returnCases = append(returnCases, caseIdx)
		}
		if r.accelErr != nil {
			// The accelerator rejected the input (should not happen for
			// generated cases); treat as candidate failure.
			sp.Str("outcome", "domain-error")
			return nil, killedAt("domain-error", tc, caseIdx, r.accelErr.Error()), nil
		}
		alive &= r.match
		if fan != nil {
			fan.alive.Store(alive)
		}
		if alive == 0 {
			sp.Str("outcome", "behavior-mismatch")
			return nil, killedAt("behavior-mismatch", tc, caseIdx,
				"no post-behavioral sketch reproduces the user output"), nil
		}
	}

	ad := &Adapter{
		FuncName:    fn.Name,
		Cand:        cand,
		Post:        sketches[bits.TrailingZeros32(alive)], // identity-first canonical order
		TestsPassed: len(cases),
	}
	if cand.ReturnIgnored && sawReturn {
		c := returnVals[0]
		for i, v := range returnVals {
			if v != c {
				// Return value depends on input; cannot reproduce. The
				// discriminating case is the one whose return value first
				// differed from the first-run case's.
				sp.Str("outcome", "return-mismatch")
				kc := returnCases[i]
				return nil, verdict{outcome: "return-mismatch", tests: len(cases), at: kc, tc: &cases[kc],
					detail: fmt.Sprintf("return value varies across inputs (%d vs %d)", c, v)}, nil
			}
		}
		ad.ReturnConst = &c
	}
	sp.Str("outcome", obs.OutcomeSurvived)
	return ad, verdict{outcome: obs.OutcomeSurvived, tests: len(cases)}, nil
}

// cancelled reports whether err is a deadline or cancellation rather
// than evidence against a binding.
func cancelled(err error) bool {
	return interp.FaultOf(err) == interp.FaultCancelled ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// sketches are the post-behavioral sketches in canonical order; a
// uint32 mask with bit k set stands for a set holding sketches[k].
var (
	sketches    = behave.Sketches()
	allSketches = uint32(1)<<len(sketches) - 1
)

// caseResult is one IO case's outcome, computed where the case ran.
type caseResult struct {
	ret      *int64
	steps    int64  // interp steps the reference run paid (0 on an oracle hit)
	hit      bool   // the oracle lookup found the reference run cached
	err      error  // reference-run fault or cancellation
	accelErr error  // the device model rejected the input
	match    uint32 // sketches that reproduce the user output
	panicked any    // recovered by runCaseSafe, re-raised on the candidate's goroutine
}

// runCaseSafe runs one IO case of cand, whose iogen.RefSig is ref: the
// reference run through the oracle, the device-model run, and the
// comparison of the user output with each sketch in alive applied to the
// device output. A panic is recovered into the result, which keeps what
// the case did before it: its oracle lookup and, past the reference run,
// that run's steps. tc.Input is shared through the oracle cache's memo,
// so nothing here writes it.
func runCaseSafe(ctx context.Context, cand *binding.Candidate, ref string, tc iogen.Case,
	orc *oracle, alive uint32, tol float64) (r caseResult) {
	defer func() {
		if p := recover(); p != nil {
			r.panicked = p
		}
	}()
	runCase(ctx, cand, ref, tc, orc, alive, tol, &r)
	return r
}

func runCase(ctx context.Context, cand *binding.Candidate, ref string, tc iogen.Case,
	orc *oracle, alive uint32, tol float64, r *caseResult) {
	var userOut []complex128
	userOut, r.ret, r.steps, r.hit, r.err = orc.run(ctx, cand, ref, tc)
	if r.err != nil {
		return
	}
	accelOut, err := runAccel(cand, tc)
	if err != nil {
		r.accelErr = err
		return
	}
	patched := make([]complex128, len(accelOut))
	for k, op := range sketches {
		if alive&(1<<k) == 0 {
			continue
		}
		copy(patched, accelOut)
		op.Apply(patched)
		if vectorsClose(userOut, patched, tol) {
			r.match |= 1 << k
		}
	}
}

// final reports whether r ends its candidate's test once resolution
// reaches it: a fault or cancellation, a rejected input, a panic, or no
// sketch of alive (the set as resolved so far, or any superset of the
// set resolution will hold) that reproduces the user output.
func (r *caseResult) final(alive uint32) bool {
	return r.err != nil || r.accelErr != nil || r.panicked != nil || r.match&alive == 0
}

// caseFan runs one candidate's IO cases on several goroutines. Each
// worker claims the next case in case order and runs all of it
// (runCase) under a context of its own. A case that will end its
// candidate's test if resolution reaches it makes every case after it
// moot, so its worker cancels those at once and no later case is
// claimed; resolution need not catch up first. The candidate's goroutine
// collects the results in case order with wait, and stop cancels
// whatever is still in flight and waits for the workers, so no dropped
// case outlives its candidate.
type caseFan struct {
	ctx     context.Context // the candidate's
	results []caseResult
	ready   chan int // cases whose result is written; one slot each, so no send blocks
	have    []bool   // cases received from ready (wait's goroutine only)
	// alive is the candidate's sketch set as last resolved. It only
	// shrinks, so a case compares only these sketches and judges
	// finality against them.
	alive atomic.Uint32
	wg    sync.WaitGroup

	mu      sync.Mutex
	next    int                  // the next case to claim
	limit   int                  // no case past it is claimed
	cancels []context.CancelFunc // per in-flight case
	started int                  // cases begun: the work done
}

func startCases(ctx context.Context, cand *binding.Candidate, ref string, cases []iogen.Case,
	orc *oracle, tol float64, workers int) *caseFan {
	f := &caseFan{ctx: ctx, results: make([]caseResult, len(cases)),
		ready: make(chan int, len(cases)), have: make([]bool, len(cases)),
		limit: len(cases) - 1, cancels: make([]context.CancelFunc, len(cases))}
	f.alive.Store(allSketches)
	f.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go f.work(cand, ref, cases, orc, tol)
	}
	return f
}

func (f *caseFan) work(cand *binding.Candidate, ref string, cases []iogen.Case,
	orc *oracle, tol float64) {
	defer f.wg.Done()
	for {
		f.mu.Lock()
		pos := f.next
		if pos > f.limit {
			f.mu.Unlock()
			return
		}
		f.next++
		f.started++
		ctx, cancel := context.WithCancel(f.ctx)
		f.cancels[pos] = cancel
		f.mu.Unlock()

		r := runCaseSafe(ctx, cand, ref, cases[pos], orc, f.alive.Load(), tol)
		cancel()

		f.mu.Lock()
		f.cancels[pos] = nil
		if pos < f.limit && r.final(f.alive.Load()) {
			f.limit = pos
			for _, c := range f.cancels[pos+1:] {
				if c != nil {
					c()
				}
			}
		}
		f.mu.Unlock()
		f.results[pos] = r
		f.ready <- pos
	}
}

// wait returns the result of case pos. A panic recovered in
// the case's goroutine is raised again here, on the candidate's
// goroutine, where evalCandidate's shield turns it into a verdict.
func (f *caseFan) wait(pos int) caseResult {
	for !f.have[pos] {
		f.have[<-f.ready] = true
	}
	if p := f.results[pos].panicked; p != nil {
		panic(p)
	}
	return f.results[pos]
}

// stop cancels the cases still in flight, claims no more, and waits for
// the workers. It returns the work of every case begun, those run past
// the deciding one included.
func (f *caseFan) stop() (w work) {
	f.mu.Lock()
	f.limit = -1
	for _, c := range f.cancels {
		if c != nil {
			c()
		}
	}
	f.mu.Unlock()
	f.wg.Wait()
	for i := range f.results[:f.started] {
		w.add(&f.results[i])
	}
	return w
}

// runUser executes the user function under the candidate's interpretation
// and returns the decoded complex output.
func runUser(m *interp.Machine, fn *minic.FuncDecl, cand *binding.Candidate,
	tc iogen.Case) ([]complex128, *int64, error) {
	m.Reset() // fresh fuel and counters per case; globals persist
	n := int(tc.AccelLen)
	args := make([]interp.Value, len(fn.Params))
	arrays := map[string]interp.Value{}

	// Allocate and fill arrays mentioned by the binding; unbound pointer
	// parameters get zeroed scratch of the same element count.
	inParams := map[string]bool{}
	for _, p := range cand.Input.Params() {
		inParams[p] = true
	}
	outParams := map[string]bool{}
	for _, p := range cand.Output.Params() {
		outParams[p] = true
	}

	for i, prm := range fn.Params {
		pt := prm.Type.Decay()
		switch {
		case pt.Kind == minic.TPointer:
			elem := pt.Elem
			arr, err := m.NewArray(prm.Name, elem, n)
			if err != nil {
				return nil, nil, err
			}
			arrays[prm.Name] = arr
			args[i] = arr
		case pt.IsInteger():
			v := tc.Scalars[prm.Name]
			if prm.Name == cand.Length.Param {
				v = tc.UserLen
			}
			args[i] = interp.Value{T: pt, I: v}
		case pt.IsFloat():
			args[i] = interp.FloatValue(0, pt)
		default:
			args[i] = interp.IntValue(0)
		}
	}

	// Encode the input signal through the candidate's layout.
	if err := writeArray(m, cand.Input, arrays, tc.Input); err != nil {
		return nil, nil, err
	}

	ret, err := m.Call(fn, args)
	if err != nil {
		return nil, nil, err
	}
	out, err := readArray(m, cand.Output, arrays, n)
	if err != nil {
		return nil, nil, err
	}
	var retConst *int64
	if fn.Type.Ret.Kind != minic.TVoid && ret.Kind() == interp.VInt {
		v := ret.I
		retConst = &v
	}
	return out, retConst, nil
}

// writeArray encodes vals into the user arrays per the binding layout.
func writeArray(m *interp.Machine, b binding.ArrayBinding,
	arrays map[string]interp.Value, vals []complex128) error {
	switch b.Layout {
	case binding.LayoutC99:
		return m.SetComplexArray(arrays[b.Param], vals)
	case binding.LayoutStruct:
		return m.SetStructComplexArray(arrays[b.Param], vals, b.ReOff, b.ImOff)
	case binding.LayoutSplit:
		re := make([]float64, len(vals))
		im := make([]float64, len(vals))
		for i, v := range vals {
			re[i], im[i] = real(v), imag(v)
		}
		if err := m.SetFloatArray(arrays[b.ReParam], re); err != nil {
			return err
		}
		return m.SetFloatArray(arrays[b.ImParam], im)
	default:
		return fmt.Errorf("synth: unknown layout %v", b.Layout)
	}
}

// readArray decodes n complex values from the user arrays per the layout.
func readArray(m *interp.Machine, b binding.ArrayBinding,
	arrays map[string]interp.Value, n int) ([]complex128, error) {
	switch b.Layout {
	case binding.LayoutC99:
		return m.GetComplexArray(arrays[b.Param], n)
	case binding.LayoutStruct:
		return m.GetStructComplexArray(arrays[b.Param], n, b.ReOff, b.ImOff)
	case binding.LayoutSplit:
		re, err := m.GetFloatArray(arrays[b.ReParam], n)
		if err != nil {
			return nil, err
		}
		im, err := m.GetFloatArray(arrays[b.ImParam], n)
		if err != nil {
			return nil, err
		}
		out := make([]complex128, n)
		for i := range out {
			out[i] = complex(re[i], im[i])
		}
		return out, nil
	default:
		return nil, fmt.Errorf("synth: unknown layout %v", b.Layout)
	}
}

// runAccel produces the accelerator's output for the case.
func runAccel(cand *binding.Candidate, tc iogen.Case) ([]complex128, error) {
	dir := fft.Forward
	if d := cand.Direction; d != nil {
		av := d.Constant
		if d.Param != "" {
			av = d.Map[tc.Scalars[d.Param]]
		}
		if av == accel.FFTWBackward {
			dir = fft.Inverse
		}
	}
	return cand.Spec.Run(tc.Input, dir)
}

// vectorsClose compares complex vectors with a norm-scaled tolerance:
// |a-b|∞ ≤ tol · (1 + |b|∞). This absorbs the single-precision hardware
// datapath while still distinguishing swapped layouts, wrong directions and
// missing normalization. A NaN or infinite component on either side is
// never close: an infinite b would make the limit infinite.
func vectorsClose(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	norm := 0.0
	for _, v := range b {
		if m := math.Hypot(real(v), imag(v)); m > norm {
			norm = m
		}
	}
	if math.IsInf(norm, 0) {
		return false
	}
	limit := tol * (1 + norm)
	for i := range a {
		d := a[i] - b[i]
		if !(math.Hypot(real(d), imag(d)) <= limit) {
			return false
		}
	}
	return true
}
