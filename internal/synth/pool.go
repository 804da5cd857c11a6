// Candidate-level parallelism for generate-and-test. The pool fuzzes
// binding candidates concurrently but reports *sequential* semantics: the
// winner, the Tested/Survivors counts, and the journaled verdicts are the
// ones a Workers=1 run would produce, regardless of goroutine scheduling.
//
// Three mechanisms make that hold:
//
//   - frontier-first dispatch: the lowest-index undecided candidate (the
//     only one that can resolve the search next) is always dispatched
//     before anything else, so candidate i never starves behind
//     speculation. Remaining worker slots are speculative, and they are
//     spent cheapest-first by a static cost model (iogen.EstimateCost:
//     summed test-case sizes plus a free-parameter surcharge) — a pure
//     function of the candidate, so the dispatch order is itself
//     deterministic. At Workers=1 the frontier rule degenerates to exact
//     enumeration order: a sequential search has no speculative budget
//     to allocate;
//   - first-winner-by-index selection: a surviving candidate only becomes
//     the winner once every lower-indexed candidate has been decided
//     against. Until then it is the "minimum survivor", which bounds the
//     useful search — in-flight candidates above it are cancelled with
//     errSuperseded (distinguished from timeouts via context.Cause) and
//     their outcomes discarded;
//   - buffered journals: each candidate records its verdicts into a
//     private journal, flushed into the real one in candidate order and
//     only up to the winner, so the provenance stream is byte-stable
//     across worker counts (timestamps aside).
//
// Metrics counters (synth.tests_run, interp.*) deliberately keep counting
// speculative work that the deterministic Result discards — they describe
// effort spent, not the search outcome.
package synth

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"facc/internal/analysis"
	"facc/internal/binding"
	"facc/internal/iogen"
	"facc/internal/minic"
	"facc/internal/obs"
)

// errSuperseded cancels a speculative candidate once a lower-indexed one
// has survived: the pool uses it as a context cancel cause so the fault
// boundary can tell "you lost the race" apart from "you timed out".
var errSuperseded = errors.New("superseded by an earlier surviving candidate")

// candOutcome is one candidate's result awaiting in-order resolution.
type candOutcome struct {
	decided    bool
	superseded bool
	ad         *Adapter
	err        error
	events     []obs.JournalEvent
}

// runCandidates evaluates cands on `workers` goroutines and returns the
// deterministic (winner, tested, survivors) triple — identical to what
// the sequential loop would report. On error (whole-run cancellation,
// interpreter construction failure) the counts are meaningless and the
// caller must discard the Result.
func runCandidates(ctx context.Context, fn *minic.FuncDecl,
	cands []*binding.Candidate, profile *analysis.Profile, opts Options,
	orc *oracle, replay map[string]int, workers int) (*Adapter, int, int, error) {

	poolCtx, cancelPool := context.WithCancelCause(ctx)
	defer cancelPool(nil)

	if workers > len(cands) {
		workers = len(cands)
	}
	var reg *obs.Registry
	if opts.Obs != nil {
		reg = opts.Obs.Metrics()
	}

	// Static dispatch costs: what each candidate's full fuzz batch is
	// expected to cost in interpreter work. Computed once, before any
	// worker runs, from (seed, candidate, profile) only — never from run
	// history — so every process, at every worker count, orders its
	// speculation identically. A single worker never speculates: every
	// candidate before the frontier is decided whenever it picks, so it
	// needs no costs.
	var costs []int64
	if workers > 1 {
		costs = make([]int64, len(cands))
		for i, c := range cands {
			costs[i] = iogen.EstimateCost(opts.Seed, c, profile, opts.NumTests)
		}
	}

	outcomes := make([]candOutcome, len(cands))
	var (
		mu          sync.Mutex
		dispatched  = make([]bool, len(cands))
		minSurvivor = -1
		inflight    = map[int]context.CancelCauseFunc{}
		busy        atomic.Int64
	)

	// pick (mu held) chooses the next candidate to dispatch, or -1 when
	// no dispatch can still affect the result. Only indices below the
	// current minimum survivor are eligible — anything above it already
	// lost the by-index race (ExhaustAll lifts that bound).
	pick := func() int {
		limit := len(cands)
		if !opts.ExhaustAll && minSurvivor >= 0 {
			limit = minSurvivor
		}
		first, cheapest := -1, -1
		for j := 0; j < limit; j++ {
			if dispatched[j] {
				continue
			}
			if first < 0 {
				first = j
			}
			if costs != nil && (cheapest < 0 || costs[j] < costs[cheapest]) {
				cheapest = j
			}
		}
		if first < 0 || costs == nil {
			return first
		}
		// Frontier rule: when every index below the lowest undispatched
		// candidate is decided, that candidate is the search frontier —
		// the only one whose survival can end the run — so it outranks
		// speculation. Otherwise the freed slot is pure speculation, and
		// the cost model spends it on the cheapest open hypothesis.
		for k := 0; k < first; k++ {
			if !outcomes[k].decided {
				return cheapest
			}
		}
		return first
	}

	evalOne := func(i int, candCtx context.Context) candOutcome {
		copts := opts
		var buf *obs.Journal
		if opts.Journal != nil {
			buf = obs.NewJournal()
			copts.Journal = buf
		}
		var fsp *obs.Span
		if opts.Obs != nil {
			fsp = opts.Obs.Child("fuzz").
				Str("binding", cands[i].Key()).
				Int("candidate", int64(i+1))
		}
		ad, err := evalCandidate(ctx, candCtx, fn, cands[i], profile, copts, fsp, orc, replay)
		fsp.End()
		out := candOutcome{decided: true, ad: ad, err: err,
			superseded: errors.Is(err, errSuperseded)}
		if out.superseded {
			out.err = nil
		}
		if buf != nil {
			out.events = buf.Events()
		}
		return out
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := -1
				if poolCtx.Err() == nil {
					i = pick()
				}
				if i < 0 {
					mu.Unlock()
					return
				}
				dispatched[i] = true
				candCtx, cancel := context.WithCancelCause(poolCtx)
				inflight[i] = cancel
				mu.Unlock()

				reg.Gauge("synth.pool_busy").Set(float64(busy.Add(1)))
				out := evalOne(i, candCtx)
				reg.Gauge("synth.pool_busy").Set(float64(busy.Add(-1)))

				mu.Lock()
				outcomes[i] = out
				delete(inflight, i)
				if out.ad != nil && !opts.ExhaustAll &&
					(minSurvivor < 0 || i < minSurvivor) {
					minSurvivor = i
					for j, c := range inflight {
						if j > i {
							c(errSuperseded)
						}
					}
				}
				mu.Unlock()
				cancel(nil)
			}
		}()
	}
	wg.Wait()

	// flush replays buffered journal events for candidates 0..upto in
	// candidate order — the order the sequential engine would have
	// recorded them.
	flush := func(upto int) {
		if opts.Journal == nil {
			return
		}
		for i := 0; i <= upto && i < len(outcomes); i++ {
			for _, ev := range outcomes[i].events {
				opts.Journal.Record(ev)
			}
		}
	}

	cancelled := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("synth: %s: %w", fn.Name, err)
		}
		return fmt.Errorf("synth: %s: %w", fn.Name, context.Canceled)
	}

	if opts.ExhaustAll {
		var winner *Adapter
		survivors := 0
		for i := range outcomes {
			o := &outcomes[i]
			if !o.decided {
				return nil, 0, 0, cancelled()
			}
			if o.err != nil {
				return nil, 0, 0, o.err
			}
			if o.ad != nil {
				survivors++
				if winner == nil {
					winner = o.ad
				}
			}
		}
		flush(len(outcomes) - 1)
		return winner, len(cands), survivors, nil
	}

	// First-winner mode: resolve candidates in index order, exactly as
	// the sequential loop would have encountered them.
	for i := range outcomes {
		o := &outcomes[i]
		if !o.decided || o.superseded {
			// Dispatch stopped (or the candidate was killed) before a
			// winner at a lower index was established: only whole-run
			// cancellation does that.
			return nil, 0, 0, cancelled()
		}
		if o.err != nil {
			flush(i - 1)
			return nil, 0, 0, o.err
		}
		if o.ad != nil {
			flush(i)
			return o.ad, i + 1, 1, nil
		}
	}
	flush(len(outcomes) - 1)
	return nil, len(cands), 0, nil
}
