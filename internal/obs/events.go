package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event kinds, in pipeline order: a compilation announces itself,
// each function opens, binding enumeration emits and prunes candidates,
// the fuzzer delivers one verdict per tested candidate, a winner (if any)
// is accepted, and the function closes with its result.
const (
	KindCompile  = "compile"  // compilation started (Detail: file → target)
	KindFunction = "function" // synthesis of one function started
	KindGate     = "gate"     // front-door rejection (printf/void*/nested)
	KindEmitted  = "emitted"  // binding candidate entered the test queue
	KindPruned   = "pruned"   // heuristic killed a binding hypothesis
	KindFuzz     = "fuzz"     // generate-and-test verdict for a candidate
	KindAccepted = "accepted" // candidate became the adapter
	KindResult   = "result"   // function outcome (replaced/rejected)
	KindOracle   = "oracle"   // reference-oracle cache stats for a function
)

// OutcomeSurvived is the fuzz outcome of a candidate that passed every
// IO case. Every other non-empty fuzz outcome is a kill; an empty one
// marks a candidate cut off by a compile cancellation.
const OutcomeSurvived = "survived"

// Event is one step of a binding candidate's lifecycle through the
// synthesis pipeline — enough to reconstruct why each candidate adapter
// was or was not synthesised, what each candidate cost, and which IO
// case killed it. The provenance report, the cost ledger and the search
// observatory are all folds over these events.
type Event struct {
	Seq  int64   `json:"seq"`
	AtUs float64 `json:"at_us"` // offset from stream creation, microseconds

	// Trace joins the event to the originating request (or CLI run).
	// Stamped by Record from the view's scope when the event does not
	// already carry one.
	Trace string `json:"trace,omitempty"`

	Kind     string `json:"kind"`
	Function string `json:"function,omitempty"`
	// Target names the accelerator the compilation binds to.
	Target string `json:"target,omitempty"`
	// Candidate is the binding key (the candidate's shape).
	Candidate string `json:"candidate,omitempty"`
	// Heuristic names the pruning heuristic or failure category.
	Heuristic string `json:"heuristic,omitempty"`
	// Outcome is the fuzz verdict or function result.
	Outcome string `json:"outcome,omitempty"`
	// Tests counts the IO cases resolved when the verdict was reached.
	Tests int `json:"tests,omitempty"`
	// Counterexample renders the first failing input (fuzz failures).
	Counterexample string `json:"counterexample,omitempty"`
	// Mismatch is the kill attribution for non-survivor fuzz verdicts:
	// the mismatch kind (behavior-mismatch, domain-error, the fault
	// kind, ...) of the discriminating case — the 0-based index Tests-1.
	// Empty for survivors and caseless deaths.
	Mismatch string `json:"mismatch,omitempty"`
	Detail   string `json:"detail,omitempty"`

	// Family (the user-visible binding family, iogen.UserSig) and Seed
	// (the fuzz seed) describe every fuzzed candidate. Case is the
	// 0-based index of the IO case a kill is attributed to, -1 when no
	// single case is (not-viable, timeout, panic); CaseSig
	// (iogen.CaseSig) and Len (the case's accelerator length) identify
	// that case.
	Family  string `json:"family,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Case    int    `json:"case,omitempty"`
	CaseSig string `json:"case_sig,omitempty"`
	Len     int64  `json:"len,omitempty"`

	// The candidate's work, on fuzz events: the IO cases it started
	// (cases run past its kill included), the interpreter steps their
	// reference runs paid, and their reference-oracle lookups — hits
	// reuse a run some candidate already paid for. Oracle events carry
	// a function's lookups.
	Started      int64 `json:"started,omitempty"`
	Steps        int64 `json:"steps,omitempty"`
	OracleHits   int64 `json:"oracle_hits,omitempty"`
	OracleMisses int64 `json:"oracle_misses,omitempty"`
}

// Killed reports whether ev records a candidate's death.
func (ev *Event) Killed() bool {
	return ev.Kind == KindFuzz && ev.Outcome != "" && ev.Outcome != OutcomeSurvived
}

// KillMismatch is a kill's kind: the discriminating case's mismatch, or
// the outcome of a death no single case caused.
func (ev *Event) KillMismatch() string {
	if ev.Mismatch != "" {
		return ev.Mismatch
	}
	return ev.Outcome
}

// Events is the candidate-event stream: an append-only, concurrency-safe
// record of each candidate's lifecycle, recorded once per step. Like the
// tracer it is nil-safe: a nil *Events makes every method a free no-op,
// so the pipeline's instrumentation costs nothing when it is off.
//
// An Events value is a view onto shared state. Scoped returns a second
// view over the same stream bound to a request trace ID: it stamps what
// it records with the ID and reads back only that trace's events, so one
// process-wide stream serves many concurrent requests while each
// request's events stay joinable.
//
// Events are indexed by trace ID, and a process that serves requests
// bounds the stream the way it bounds the tracer: it holds a request's
// trace while the request runs, closes the trace when the request ends,
// which folds the trace's events into the stream's running cost and
// search totals, and releases it when no one needs the events any more.
// A trace nobody holds keeps its events for the stream's lifetime, which
// is what a CLI run or a library caller keeps.
type Events struct {
	trace string
	s     *eventLog
}

// eventLog is the shared stream behind one or more Events views.
type eventLog struct {
	start time.Time

	mu     sync.Mutex
	seq    int64                  // events recorded, released ones included
	traces map[string]*eventTrace // by trace ID; "" holds unscoped events
	costs  costTotals             // the closed events' cost ledger
	search searchFold             // the closed events' search observatory
}

// eventTrace is one trace's events, how many of them are folded into the
// running totals, and the holds keeping them.
type eventTrace struct {
	events []Event // in record order
	closed int     // events[:closed] are folded
	holds  int
}

// NewEvents returns an empty stream anchored at the current instant.
func NewEvents() *Events {
	return &Events{s: &eventLog{start: time.Now(), traces: map[string]*eventTrace{}}}
}

// Scoped returns a view of the same stream bound to the given trace ID.
// Nil-safe; an empty trace returns the receiver.
func (e *Events) Scoped(trace string) *Events {
	if e == nil || trace == "" {
		return e
	}
	return &Events{trace: trace, s: e.s}
}

// Record appends ev, assigning its sequence number and timestamp and —
// when the event does not already carry one — the view's trace ID. No-op
// on a nil stream.
func (e *Events) Record(ev Event) {
	if e == nil {
		return
	}
	if ev.Trace == "" {
		ev.Trace = e.trace
	}
	s := e.s
	at := time.Since(s.start)
	s.mu.Lock()
	s.seq++
	ev.Seq = s.seq
	ev.AtUs = float64(at) / float64(time.Microsecond)
	et := s.trace(ev.Trace)
	et.events = append(et.events, ev)
	s.mu.Unlock()
}

// Snapshot returns the view's held events in record order: every trace's
// for an unscoped view, the trace's own for a scoped one. A recorded
// event never changes, so when the events are one trace's the snapshot
// shares them instead of copying them; callers must not modify them.
func (e *Events) Snapshot() []Event {
	if e == nil {
		return nil
	}
	s := e.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.trace != "" {
		if et := s.traces[e.trace]; et != nil {
			return et.events[:len(et.events):len(et.events)]
		}
		return nil
	}
	var out []Event
	for _, et := range s.traces {
		if len(s.traces) == 1 {
			return et.events[:len(et.events):len(et.events)]
		}
		out = append(out, et.events...)
	}
	// Several traces: merge them back into record order.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Recorded returns the number of events recorded on the stream since it
// was made, released ones included.
func (e *Events) Recorded() int64 {
	if e == nil {
		return 0
	}
	e.s.mu.Lock()
	defer e.s.mu.Unlock()
	return e.s.seq
}

// Hold keeps the events recorded under trace until a matching Release.
// Nil-safe; an empty trace is never held.
func (e *Events) Hold(trace string) {
	if e == nil || trace == "" {
		return
	}
	e.s.mu.Lock()
	e.s.trace(trace).holds++
	e.s.mu.Unlock()
}

// Close folds the events recorded under trace since its last Close into
// the stream's running cost and search totals, so each event is folded
// once; they stay readable until the trace is released. Closing a trace
// that a client reused for requests that overlap folds whatever the
// requests have recorded so far. Nil-safe.
func (e *Events) Close(trace string) {
	if e == nil || trace == "" {
		return
	}
	s := e.s
	s.mu.Lock()
	if et := s.traces[trace]; et != nil {
		s.fold(et)
	}
	s.mu.Unlock()
}

// Release lets go of one hold on trace; when none is left, its events
// are dropped, after folding any that no Close folded. A trace nobody
// holds is left alone. Nil-safe.
func (e *Events) Release(trace string) {
	if e == nil || trace == "" {
		return
	}
	s := e.s
	s.mu.Lock()
	if et := s.traces[trace]; et != nil && et.holds > 0 {
		if et.holds--; et.holds == 0 {
			s.fold(et)
			delete(s.traces, trace)
		}
	}
	s.mu.Unlock()
}

// Totals returns the view's cost ledger — its number of candidate
// accounts and their per-target rollup — and its search summary (nil
// when no candidate was seen). For the whole stream that is the running
// totals of the closed events plus a fold of the open ones, so it
// covers every event recorded, released ones included, without walking
// them again; a scoped view folds its trace's held events. Every
// request's events fold on their own, so when each request has its own
// trace ID the result equals FoldCosts and FoldSearch over the whole
// stream. A trace ID reused by requests that do not overlap folds once
// per request: its candidates count one account per request, where a
// fold of the whole stream would merge the accounts they share. The work
// totals (tests, steps, oracle lookups) and the search summary agree
// either way.
func (e *Events) Totals() (accounts int, costs CostSummary, search *SearchSummary) {
	if e == nil || e.trace != "" {
		evs := e.Snapshot()
		accounts, costs = FoldCosts(evs)
		return accounts, costs, FoldSearch(evs)
	}
	s := e.s
	var open [][]Event
	var ct costTotals
	var sf searchFold
	s.mu.Lock()
	for _, et := range s.traces {
		if len(et.events) > et.closed {
			open = append(open, et.events[et.closed:])
		}
	}
	ct.merge(&s.costs)
	sf.merge(&s.search)
	s.mu.Unlock()
	f := costFold{}
	for _, evs := range open {
		f.add(evs)
		sf.add(evs)
	}
	ct.book(f)
	return ct.accounts, ct.summary(), sf.summary()
}

// trace returns the entry of a trace ID, making it on first use. The
// caller holds s.mu.
func (s *eventLog) trace(id string) *eventTrace {
	et := s.traces[id]
	if et == nil {
		et = &eventTrace{}
		s.traces[id] = et
	}
	return et
}

// fold books et's open events into the running totals. The caller holds
// s.mu.
func (s *eventLog) fold(et *eventTrace) {
	evs := et.events[et.closed:]
	if len(evs) == 0 {
		return
	}
	f := costFold{}
	f.add(evs)
	s.costs.book(f)
	s.search.add(evs)
	et.closed = len(et.events)
}

// WriteJSONL exports the view's events as one JSON object per line.
func (e *Events) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range e.Snapshot() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// WriteReport renders the view's events as a human-readable provenance
// report: per function, the gate verdict, the enumerated-vs-pruned
// binding accounting, and every tested candidate with its fuzz verdict
// (and the first counterexample input when it failed). The output is
// deterministic — no timestamps — so runs with fixed seeds are
// reproducible verbatim.
func (e *Events) WriteReport(out io.Writer) error {
	w := &errWriter{w: out}
	evs := e.Snapshot()
	for _, ev := range evs {
		if ev.Kind == KindCompile {
			fmt.Fprintf(w, "provenance: %s\n", ev.Detail)
		}
	}

	var order []string
	byFn := map[string][]Event{}
	for _, ev := range evs {
		if ev.Function == "" {
			continue
		}
		if _, ok := byFn[ev.Function]; !ok {
			order = append(order, ev.Function)
		}
		byFn[ev.Function] = append(byFn[ev.Function], ev)
	}

	for _, fn := range order {
		fevs := byFn[fn]
		outcome, reason := "attempted", ""
		for _, ev := range fevs {
			if ev.Kind == KindResult {
				outcome, reason = ev.Outcome, ev.Heuristic
			}
		}
		fmt.Fprintf(w, "\nfunction %s — %s", fn, strings.ToUpper(outcome))
		if outcome == "rejected" && reason != "" {
			fmt.Fprintf(w, " (%s)", reason)
		}
		fmt.Fprintf(w, "\n")

		emitted := 0
		prunes := map[string]int{}
		pruned := 0
		for _, ev := range fevs {
			switch ev.Kind {
			case KindGate:
				fmt.Fprintf(w, "  gate: rejected — %s\n", ev.Heuristic)
			case KindEmitted:
				emitted++
			case KindPruned:
				prunes[ev.Heuristic]++
				pruned++
			}
		}
		if emitted > 0 || pruned > 0 {
			fmt.Fprintf(w, "  bindings: %d emitted", emitted)
			if pruned > 0 {
				names := make([]string, 0, len(prunes))
				for h := range prunes {
					names = append(names, h)
				}
				sort.Strings(names)
				parts := make([]string, len(names))
				for i, h := range names {
					parts[i] = fmt.Sprintf("%s ×%d", h, prunes[h])
				}
				fmt.Fprintf(w, ", %d pruned (%s)", pruned, strings.Join(parts, ", "))
			}
			fmt.Fprintf(w, "\n")
		}

		n := 0
		for _, ev := range fevs {
			switch {
			case ev.Kind == KindFuzz && ev.Outcome != "":
				n++
				fmt.Fprintf(w, "  candidate %d: %s\n", n, ev.Candidate)
				fmt.Fprintf(w, "    fuzz: %s after %d test(s)\n", ev.Outcome, ev.Tests)
				if ev.Mismatch != "" && ev.Tests > 0 {
					fmt.Fprintf(w, "    killed by: case %d (%s)\n", ev.Tests-1, ev.Mismatch)
				}
				if ev.Counterexample != "" {
					fmt.Fprintf(w, "    counterexample: %s\n", ev.Counterexample)
				}
			case ev.Kind == KindAccepted:
				fmt.Fprintf(w, "    accepted: %s\n", ev.Detail)
			}
		}
	}
	return w.err
}

// WritePrometheus renders the view's cost ledger (the facc_ledger_*
// families) and search observatory (facc_search_*), from Totals.
// Nil-safe: a nil or empty stream writes nothing.
func (e *Events) WritePrometheus(out io.Writer) error {
	_, costs, search := e.Totals()
	if err := costs.writePrometheus(out); err != nil {
		return err
	}
	return search.writePrometheus(out)
}
