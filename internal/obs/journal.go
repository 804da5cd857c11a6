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

// Journal event kinds, in pipeline order: a compilation announces itself,
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

// JournalEvent is one entry of the synthesis provenance journal — enough
// to reconstruct why each candidate adapter was or was not synthesised.
type JournalEvent struct {
	Seq  int64   `json:"seq"`
	AtUs float64 `json:"at_us"` // offset from journal creation, microseconds

	// Trace joins the event to the originating request (or CLI run).
	// Stamped by Record from the journal's scope when the event does not
	// already carry one, so buffered sub-journals replayed through a
	// scoped journal inherit the request's ID.
	Trace string `json:"trace,omitempty"`

	Kind     string `json:"kind"`
	Function string `json:"function,omitempty"`
	// Candidate is the binding key (the candidate's shape).
	Candidate string `json:"candidate,omitempty"`
	// Heuristic names the pruning heuristic or failure category.
	Heuristic string `json:"heuristic,omitempty"`
	// Outcome is the fuzz verdict or function result.
	Outcome string `json:"outcome,omitempty"`
	// Tests counts IO examples run against the candidate.
	Tests int `json:"tests,omitempty"`
	// Counterexample renders the first failing input (fuzz failures).
	Counterexample string `json:"counterexample,omitempty"`
	// Mismatch is the kill attribution for non-survivor fuzz verdicts:
	// the mismatch kind (behavior-mismatch, domain-error, the fault
	// kind, ...) of the discriminating case — the 0-based index Tests-1.
	// Empty for survivors and caseless deaths.
	Mismatch string `json:"mismatch,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// Journal is an append-only, concurrency-safe event stream recording each
// candidate's lifecycle through the synthesis pipeline. Like the tracer,
// it is nil-safe: a nil *Journal makes every method a free no-op, so the
// pipeline's instrumentation costs nothing when provenance is off.
//
// A Journal value is a view onto shared state: Scoped returns a second
// view over the same event stream that stamps every recorded event with a
// request trace ID, so one process-wide journal can serve many concurrent
// requests while keeping each request's lines joinable.
type Journal struct {
	trace string
	s     *journalState
}

// journalState is the shared append-only stream behind one or more
// Journal views.
type journalState struct {
	start time.Time

	mu     sync.Mutex
	events []JournalEvent
}

// NewJournal returns an empty journal anchored at the current instant.
func NewJournal() *Journal {
	return &Journal{s: &journalState{start: time.Now()}}
}

// Scoped returns a view of the same journal that stamps recorded events
// with the given trace ID. Nil-safe; an empty trace returns the receiver.
func (j *Journal) Scoped(trace string) *Journal {
	if j == nil || trace == "" {
		return j
	}
	return &Journal{trace: trace, s: j.s}
}

// Trace returns the view's trace scope ("" for the root view).
func (j *Journal) Trace() string {
	if j == nil {
		return ""
	}
	return j.trace
}

// Record appends ev, assigning its sequence number and timestamp and —
// when the event does not already carry one — the view's trace ID. No-op
// on a nil journal.
func (j *Journal) Record(ev JournalEvent) {
	if j == nil {
		return
	}
	if ev.Trace == "" {
		ev.Trace = j.trace
	}
	s := j.s
	at := time.Since(s.start)
	s.mu.Lock()
	ev.Seq = int64(len(s.events)) + 1
	ev.AtUs = float64(at) / float64(time.Microsecond)
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Events returns a snapshot of the journal in record order.
func (j *Journal) Events() []JournalEvent {
	if j == nil {
		return nil
	}
	s := j.s
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JournalEvent, len(s.events))
	copy(out, s.events)
	return out
}

// TraceEvents returns the events stamped with the given trace ID, in
// record order — one request's provenance, for flight records.
func (j *Journal) TraceEvents(trace string) []JournalEvent {
	if j == nil || trace == "" {
		return nil
	}
	var out []JournalEvent
	s := j.s
	s.mu.Lock()
	for _, ev := range s.events {
		if ev.Trace == trace {
			out = append(out, ev)
		}
	}
	s.mu.Unlock()
	return out
}

// Len returns the number of recorded events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	s := j.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// WriteJSONL exports the journal as one JSON object per line.
func (j *Journal) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range j.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// WriteReport renders the journal as a human-readable provenance report:
// per function, the gate verdict, the enumerated-vs-pruned binding
// accounting, and every tested candidate with its fuzz verdict (and the
// first counterexample input when it failed). The output is deterministic
// — no timestamps — so runs with fixed seeds are reproducible verbatim.
func (j *Journal) WriteReport(out io.Writer) error {
	w := &errWriter{w: out}
	evs := j.Events()
	for _, ev := range evs {
		if ev.Kind == KindCompile {
			fmt.Fprintf(w, "provenance: %s\n", ev.Detail)
		}
	}

	var order []string
	byFn := map[string][]JournalEvent{}
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
			switch ev.Kind {
			case KindFuzz:
				n++
				fmt.Fprintf(w, "  candidate %d: %s\n", n, ev.Candidate)
				fmt.Fprintf(w, "    fuzz: %s after %d test(s)\n", ev.Outcome, ev.Tests)
				if ev.Mismatch != "" && ev.Tests > 0 {
					fmt.Fprintf(w, "    killed by: case %d (%s)\n", ev.Tests-1, ev.Mismatch)
				}
				if ev.Counterexample != "" {
					fmt.Fprintf(w, "    counterexample: %s\n", ev.Counterexample)
				}
			case KindAccepted:
				fmt.Fprintf(w, "    accepted: %s\n", ev.Detail)
			}
		}
	}
	return w.err
}
