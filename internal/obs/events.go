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
type Events struct {
	trace string
	s     *eventLog
}

// eventLog is the shared stream behind one or more Events views.
type eventLog struct {
	start time.Time

	mu     sync.Mutex
	events []Event
}

// NewEvents returns an empty stream anchored at the current instant.
func NewEvents() *Events {
	return &Events{s: &eventLog{start: time.Now()}}
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
	ev.Seq = int64(len(s.events)) + 1
	ev.AtUs = float64(at) / float64(time.Microsecond)
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Snapshot returns the view's events in record order: every event for
// an unscoped view, the trace's own for a scoped one. A recorded event
// never changes, so an unscoped view shares the stream's events instead
// of copying them; callers must not modify them.
func (e *Events) Snapshot() []Event {
	if e == nil {
		return nil
	}
	s := e.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.trace == "" {
		return s.events[:len(s.events):len(s.events)]
	}
	var out []Event
	for _, ev := range s.events {
		if ev.Trace == e.trace {
			out = append(out, ev)
		}
	}
	return out
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
// families) and search observatory (facc_search_*). Nil-safe: a nil or
// empty stream writes nothing.
func (e *Events) WritePrometheus(out io.Writer) error {
	evs := e.Snapshot()
	_, costs := FoldCosts(evs)
	if err := costs.writePrometheus(out); err != nil {
		return err
	}
	return FoldSearch(evs).writePrometheus(out)
}
