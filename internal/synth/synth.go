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
	// results are resolved in case order, so the Result, the adapter, the
	// journal and the kill table are identical for every Workers value;
	// only metrics, the ledger and the oracle's hit/miss split count the
	// cases run past a kill.
	Workers int
	// Obs is the enclosing pipeline span: analysis, binding enumeration,
	// per-candidate fuzzing and range-check synthesis report as children
	// of it. Nil (the default) disables tracing with zero overhead — no
	// allocations — on the generate-and-test hot path.
	Obs *obs.Span
	// Journal, when non-nil, records each candidate's lifecycle — gate
	// verdicts, emitted/pruned bindings, fuzz verdicts with the first
	// counterexample input on failure, and the accepted adapter. Nil (the
	// default) costs nothing.
	Journal *obs.Journal
	// Ledger, when non-nil, charges every interpreter test, interpreter
	// step and oracle lookup to the candidate that caused it, with the
	// candidate's final verdict separating useful work (the winner) from
	// speculative waste (losers). Every call site guards with a nil check
	// before rendering the candidate key, so nil (the default) allocates
	// nothing on the hot path.
	Ledger *obs.Ledger
	// Kills, when non-nil, records the search observatory: every
	// non-survivor's death attributed to the discriminating IO case
	// (seed, case index, interp steps at death, mismatch kind, binding
	// family) as an obs.KillEvent, plus the per-(function, target)
	// search funnel. Like the journal it records what a sequential run
	// decides, whatever Workers is. Every call site guards with a nil
	// check before rendering keys, so nil (the default) allocates
	// nothing on the verdict path.
	Kills *obs.KillTable
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
	opts.Journal.Record(obs.JournalEvent{Kind: obs.KindFunction,
		Function: fn.Name, Detail: spec.Name})
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
		opts.Journal.Record(obs.JournalEvent{Kind: obs.KindGate,
			Function: fn.Name, Heuristic: gate})
		return res, nil
	}
	bopts := opts.Binding
	bopts.Journal = opts.Journal
	bopts.Kills = opts.Kills
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
	orc := newOracle(f, fn, spec.Name, workers, reg, opts.Ledger, cache)
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
	if hits, misses, rate := orc.stats(); opts.Journal != nil && hits+misses > 0 {
		opts.Journal.Record(obs.JournalEvent{Kind: obs.KindOracle,
			Function: fn.Name,
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
	if opts.Ledger != nil {
		// Reclassify the deterministic winner's account from "survived"
		// to "winner": its tests/steps become the useful-work baseline
		// every other candidate's charges are waste against.
		opts.Ledger.SetVerdict(fn.Name, spec.Name, winner.Cand.Key(), obs.VerdictWinner)
	}
	opts.Kills.AddWinner(fn.Name, spec.Name, 1)
	opts.Obs.Metrics().Counter("synth.winners").Inc()
	if opts.Journal != nil {
		opts.Journal.Record(obs.JournalEvent{Kind: obs.KindAccepted,
			Function: fn.Name, Candidate: winner.Cand.Key(),
			Tests: winner.TestsPassed,
			Detail: fmt.Sprintf("post=%s; check=%s", winner.Post,
				winner.Check.CCondition(lenCExpr(winner.Cand.Length)))})
	}
	return res, nil
}

// lenCExpr renders a length binding as the C expression the generated
// adapter guards on (mirrors codegen's lengthExpr), so journal "accepted"
// events show the range check in the user's own terms.
func lenCExpr(lb binding.LengthBinding) string {
	if lb.Param == "" {
		return fmt.Sprintf("%d", lb.Const)
	}
	if lb.Conv == binding.ConvExp2 {
		return fmt.Sprintf("(1 << %s)", lb.Param)
	}
	return lb.Param
}

// verdict records one candidate's generate-and-test outcome in the
// journal and as the candidate's final ledger verdict. The binding key
// and counterexample are only rendered when a sink is attached, so the
// disabled path stays allocation-free.
func verdict(opts Options, fn string, cand *binding.Candidate,
	outcome string, tests int, cex, detail string) {
	if opts.Ledger != nil {
		opts.Ledger.SetVerdict(fn, cand.Spec.Name, cand.Key(), outcome)
	}
	if opts.Journal == nil {
		return
	}
	ev := obs.JournalEvent{Kind: obs.KindFuzz, Function: fn,
		Candidate: cand.Key(), Outcome: outcome, Tests: tests,
		Counterexample: cex, Detail: detail}
	if outcome != "survived" && tests > 0 {
		// The kill is attributable to the last case run (0-based index
		// tests-1); stamp the mismatch kind so -explain's "killed by"
		// line and the kill table tell the same story.
		ev.Mismatch = outcome
		if outcome == "fault" {
			ev.Mismatch = detail // the fault kind, e.g. out-of-bounds
		}
	}
	opts.Journal.Record(ev)
}

// recordKill attributes one candidate's death to the discriminating IO
// case in the kill table. With no table it returns before rendering any
// key, so the disabled path allocates nothing; callers guard too, before
// rendering their detail strings. tc is nil (and caseIdx -1) when no
// single case is attributable.
func recordKill(opts Options, fn string, cand *binding.Candidate,
	tc *iogen.Case, caseIdx int, steps int64, mismatch, detail string) {
	if opts.Kills == nil {
		return
	}
	ev := obs.KillEvent{
		Function:  fn,
		Target:    cand.Spec.Name,
		Candidate: cand.Key(),
		Family:    iogen.UserSig(cand),
		Seed:      opts.Seed,
		CaseIndex: caseIdx,
		Steps:     steps,
		Mismatch:  mismatch,
		Detail:    detail,
	}
	if tc != nil && caseIdx >= 0 {
		ev.CaseSig = iogen.CaseSig(opts.Seed, tc.AccelLen, caseIdx)
		ev.Len = tc.AccelLen
	}
	opts.Kills.Record(ev)
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
// goroutines — is rejected, journaled with a "timeout"/"panic" verdict,
// and synthesis continues; only a cancellation of the enclosing runCtx
// aborts the whole run.
func evalCandidate(runCtx context.Context, fn *minic.FuncDecl,
	cand *binding.Candidate, profile *analysis.Profile, opts Options,
	sp *obs.Span, orc *oracle) (ad *Adapter, err error) {
	cctx := runCtx
	if opts.CandidateTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(runCtx, opts.CandidateTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			// Panic isolation: a crashing candidate costs one candidate,
			// not the process. FaultPanic classifies it in provenance.
			ad, err = nil, nil
			sp.Str("outcome", "panic")
			if opts.Obs != nil {
				opts.Obs.Metrics().Counter("synth.panics").Inc()
			}
			verdict(opts, fn.Name, cand, interp.FaultPanic.String(), 0, "",
				fmt.Sprintf("recovered: %v", r))
			if opts.Kills != nil {
				recordKill(opts, fn.Name, cand, nil, -1, 0,
					interp.FaultPanic.String(), fmt.Sprintf("recovered: %v", r))
			}
		}
	}()
	ad, err = testCandidate(cctx, fn, cand, profile, opts, sp, orc)
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
		verdict(opts, fn.Name, cand, "timeout", 0, "",
			fmt.Sprintf("candidate exceeded its %s budget", opts.CandidateTimeout))
		if opts.Kills != nil {
			recordKill(opts, fn.Name, cand, nil, -1, 0, "timeout", "")
		}
		return nil, nil
	}
	return ad, err
}

// testCandidate fuzz-tests one binding candidate. It returns a validated
// adapter, or nil when the candidate is behaviorally wrong or faults; a
// cancellation propagates so evalCandidate can distinguish a candidate
// timeout from a compilation cancel. sp (may be nil) receives
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
	sp *obs.Span, orc *oracle) (*Adapter, error) {
	opts.Kills.AddDispatched(fn.Name, cand.Spec.Name, 1)
	gen := orc.cache.memo.Generator(opts.Seed, cand, profile)
	if !gen.Viable() {
		sp.Str("outcome", "not-viable")
		verdict(opts, fn.Name, cand, "not-viable", 0, "",
			"no test sizes inside the accelerator domain")
		if opts.Kills != nil {
			recordKill(opts, fn.Name, cand, nil, -1, 0, "not-viable",
				"no test sizes inside the accelerator domain")
		}
		return nil, nil
	}
	cases := gen.Cases(opts.NumTests)
	ref := gen.RefSig()

	// started counts the cases begun, including those a fan ran past
	// the deciding one. The metrics and the ledger are charged with it on
	// every exit path: it is the work this candidate cost.
	started := 0
	var fan *caseFan
	if sp != nil || opts.Ledger != nil {
		defer func() {
			if sp != nil {
				sp.Int("tests", int64(started))
				m := sp.Metrics()
				m.Counter("synth.tests_run").Add(int64(started))
				m.Histogram("synth.tests_per_candidate", obs.CountBuckets).
					Observe(float64(started))
			}
			if opts.Ledger != nil {
				opts.Ledger.ChargeTests(fn.Name, cand.Spec.Name, cand.Key(), int64(started))
			}
		}()
	}
	if w := min(orc.workers, len(cases)); w > 1 {
		fan = startCases(ctx, cand, ref, cases, orc, opts.Tolerance, w)
		defer func() { started = fan.stop() }() // runs before the charge above
	}

	// All post-behavioral sketches start alive; each case prunes.
	alive := allSketches

	var returnVals []int64
	var returnCases []int // case index per returnVals entry (kill table only)
	sawReturn := false
	var steps int64 // interp steps this candidate paid, so far

	for caseIdx, tc := range cases {
		var r caseResult
		if fan != nil {
			r = fan.wait(caseIdx)
		} else {
			// An oracle hit never enters the interpreter, which is what
			// polls the deadline, so honor it between cases too.
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("synth: candidate evaluation cancelled: %w", err)
			}
			started++
			r = runCase(ctx, cand, ref, tc, orc, alive, opts.Tolerance)
		}
		ran := caseIdx + 1
		steps += r.steps
		if r.err != nil {
			if cancelled(r.err) {
				// Deadline/cancel, not evidence against the binding —
				// let evalCandidate classify it.
				return nil, r.err
			}
			// Interpreter fault (OOB, etc.) — wrong binding.
			sp.Str("outcome", "fault").Str("fault", interp.FaultOf(r.err).String())
			if opts.Journal != nil || opts.Ledger != nil {
				cex := ""
				if opts.Journal != nil {
					cex = renderCase(tc)
				}
				verdict(opts, fn.Name, cand, "fault", ran, cex,
					interp.FaultOf(r.err).String())
			}
			if opts.Kills != nil {
				recordKill(opts, fn.Name, cand, &tc, caseIdx, steps,
					interp.FaultOf(r.err).String(), "")
			}
			return nil, nil
		}
		if r.ret != nil {
			sawReturn = true
			returnVals = append(returnVals, *r.ret)
			if opts.Kills != nil {
				returnCases = append(returnCases, caseIdx)
			}
		}
		if r.accelErr != nil {
			// The accelerator rejected the input (should not happen for
			// generated cases); treat as candidate failure.
			sp.Str("outcome", "domain-error")
			if opts.Journal != nil || opts.Ledger != nil {
				cex := ""
				if opts.Journal != nil {
					cex = renderCase(tc)
				}
				verdict(opts, fn.Name, cand, "domain-error", ran, cex, r.accelErr.Error())
			}
			if opts.Kills != nil {
				recordKill(opts, fn.Name, cand, &tc, caseIdx, steps,
					"domain-error", r.accelErr.Error())
			}
			return nil, nil
		}
		alive &= r.match
		if fan != nil {
			fan.alive.Store(alive)
		}
		if alive == 0 {
			sp.Str("outcome", "behavior-mismatch")
			if opts.Journal != nil || opts.Ledger != nil {
				cex := ""
				if opts.Journal != nil {
					cex = renderCase(tc)
				}
				verdict(opts, fn.Name, cand, "behavior-mismatch", ran, cex,
					"no post-behavioral sketch reproduces the user output")
			}
			if opts.Kills != nil {
				recordKill(opts, fn.Name, cand, &tc, caseIdx, steps,
					"behavior-mismatch", "")
			}
			return nil, nil
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
				// Return value depends on input; cannot reproduce.
				sp.Str("outcome", "return-mismatch")
				if opts.Journal != nil || opts.Ledger != nil {
					verdict(opts, fn.Name, cand, "return-mismatch", len(cases), "",
						fmt.Sprintf("return value varies across inputs (%d vs %d)", c, v))
				}
				if opts.Kills != nil {
					// The discriminating case is the one whose return value
					// first differed from the first-run case's.
					kc := returnCases[i]
					recordKill(opts, fn.Name, cand, &cases[kc], kc, steps,
						"return-mismatch", "")
				}
				return nil, nil
			}
		}
		ad.ReturnConst = &c
	}
	sp.Str("outcome", "survived")
	verdict(opts, fn.Name, cand, "survived", len(cases), "", "")
	opts.Kills.AddSurvived(fn.Name, cand.Spec.Name, 1)
	return ad, nil
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
	err      error  // reference-run fault or cancellation
	accelErr error  // the device model rejected the input
	match    uint32 // sketches that reproduce the user output
	panicked any    // recovered in a case goroutine, re-raised by caseFan.wait
}

// runCase runs one IO case of cand, whose iogen.RefSig is ref: the
// reference run through the oracle, the device-model run, and the
// comparison of the user output with each sketch in alive applied to the
// device output. tc.Input is shared through the oracle cache's memo, so
// nothing here writes it.
func runCase(ctx context.Context, cand *binding.Candidate, ref string, tc iogen.Case,
	orc *oracle, alive uint32, tol float64) (r caseResult) {
	var userOut []complex128
	userOut, r.ret, r.steps, r.err = orc.run(ctx, cand, ref, tc)
	if r.err != nil {
		return r
	}
	accelOut, err := runAccel(cand, tc)
	if err != nil {
		r.accelErr = err
		return r
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
	return r
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

		r := f.run(ctx, cand, ref, cases[pos], orc, tol)
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

// run is runCase with a panic recovered into the result.
func (f *caseFan) run(ctx context.Context, cand *binding.Candidate, ref string, tc iogen.Case,
	orc *oracle, tol float64) (r caseResult) {
	defer func() {
		if p := recover(); p != nil {
			r = caseResult{panicked: p}
		}
	}()
	return runCase(ctx, cand, ref, tc, orc, f.alive.Load(), tol)
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
// the workers. It returns the number of cases begun.
func (f *caseFan) stop() int {
	f.mu.Lock()
	f.limit = -1
	for _, c := range f.cancels {
		if c != nil {
			c()
		}
	}
	f.mu.Unlock()
	f.wg.Wait()
	return f.started
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
