package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// The search observatory records *why* the generate-and-test loop
// converges: which IO case killed which binding candidate, how early,
// and how the candidate population moves through the funnel
// (generated → pre-filtered → dispatched → killed/survived → winner).
// Counterexample-guided search acts on this signal; this file only
// measures it.
//
// KillTable follows the Ledger's scoped-view pattern: NewKillTable
// allocates shared state, Scoped stamps a per-request view with a trace
// ID, and every method is safe (and a zero-allocation no-op) on a nil
// receiver so disabled observability costs nothing on the verdict path.
// Synthesis records into it what a sequential run decides, at every
// worker count: a case run past its candidate's kill is never recorded.

// KillEvent records one candidate's death, attributed to the
// discriminating IO case that caused it. CaseIndex is -1 when no single
// case is attributable (not-viable, timeout, panic).
type KillEvent struct {
	Trace     string `json:"trace,omitempty"`
	Function  string `json:"function"`
	Target    string `json:"target"`
	Candidate string `json:"candidate"` // full binding key
	Family    string `json:"family"`    // user-visible binding-family key (iogen.UserSig)
	Seed      int64  `json:"seed"`
	CaseIndex int    `json:"case"`               // 0-based killing case, or -1
	CaseSig   string `json:"case_sig,omitempty"` // user-visible case identity (iogen.CaseSig)
	Len       int64  `json:"len,omitempty"`      // accelerator length of the killing case
	Steps     int64  `json:"steps"`              // interp steps charged to the candidate at death
	Mismatch  string `json:"mismatch"`           // behavior-mismatch, domain-error, fault kind, ...
	Detail    string `json:"detail,omitempty"`
}

// funnelKey identifies one function's search on one target within one
// trace; per-trace so faccd flight records can carve out their request.
type funnelKey struct {
	trace    string
	function string
	target   string
}

// Funnel counts one (trace, function, target) search population through
// its stages. Generated counts every hypothesis the enumerator formed;
// PreFiltered those rejected before fuzzing (heuristics, dedup, cap);
// Dispatched candidates that entered IO testing; Killed/Survived their
// fates; Winners the accepted adapters.
type Funnel struct {
	Trace       string `json:"trace,omitempty"`
	Function    string `json:"function"`
	Target      string `json:"target"`
	Generated   int64  `json:"generated"`
	PreFiltered int64  `json:"pre_filtered"`
	Dispatched  int64  `json:"dispatched"`
	Killed      int64  `json:"killed"`
	Survived    int64  `json:"survived"`
	Winners     int64  `json:"winners"`
}

// killState is the shared store behind every scoped KillTable view.
type killState struct {
	mu      sync.Mutex
	events  []KillEvent
	funnels map[funnelKey]*Funnel
}

// KillTable aggregates kill events and funnel counters. The zero value
// of the pointer (nil) is a valid, disabled table.
type KillTable struct {
	trace string
	s     *killState
}

// NewKillTable returns an empty kill table.
func NewKillTable() *KillTable {
	return &KillTable{s: &killState{funnels: make(map[funnelKey]*Funnel)}}
}

// Scoped returns a view that stamps every event and funnel with the
// trace ID. Nil-safe; an empty trace returns the table unchanged.
func (k *KillTable) Scoped(trace string) *KillTable {
	if k == nil || trace == "" || k.trace == trace {
		return k
	}
	return &KillTable{trace: trace, s: k.s}
}

// Trace returns the trace ID this view stamps, or "".
func (k *KillTable) Trace() string {
	if k == nil {
		return ""
	}
	return k.trace
}

// Record appends one kill event, stamping the view's trace and
// crediting the (function, target) funnel's Killed stage.
func (k *KillTable) Record(ev KillEvent) {
	if k == nil {
		return
	}
	if ev.Trace == "" {
		ev.Trace = k.trace
	}
	s := k.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, ev)
	s.funnel(ev.Trace, ev.Function, ev.Target).Killed++
}

// funnel returns the counter row for (trace, function, target),
// creating it if needed. Caller holds s.mu.
func (s *killState) funnel(trace, function, target string) *Funnel {
	key := funnelKey{trace: trace, function: function, target: target}
	f := s.funnels[key]
	if f == nil {
		f = &Funnel{Trace: trace, Function: function, Target: target}
		s.funnels[key] = f
	}
	return f
}

// add credits n to one funnel stage selected by bump.
func (k *KillTable) add(function, target string, n int64, bump func(*Funnel, int64)) {
	if k == nil || n == 0 {
		return
	}
	s := k.s
	s.mu.Lock()
	defer s.mu.Unlock()
	bump(s.funnel(k.trace, function, target), n)
}

// AddGenerated credits hypotheses formed by the enumerator.
func (k *KillTable) AddGenerated(function, target string, n int64) {
	k.add(function, target, n, func(f *Funnel, n int64) { f.Generated += n })
}

// AddPreFiltered credits hypotheses rejected before fuzzing.
func (k *KillTable) AddPreFiltered(function, target string, n int64) {
	k.add(function, target, n, func(f *Funnel, n int64) { f.PreFiltered += n })
}

// AddDispatched credits candidates that entered IO testing.
func (k *KillTable) AddDispatched(function, target string, n int64) {
	k.add(function, target, n, func(f *Funnel, n int64) { f.Dispatched += n })
}

// AddSurvived credits candidates that passed every IO test.
func (k *KillTable) AddSurvived(function, target string, n int64) {
	k.add(function, target, n, func(f *Funnel, n int64) { f.Survived += n })
}

// AddWinner credits the accepted adapter.
func (k *KillTable) AddWinner(function, target string, n int64) {
	k.add(function, target, n, func(f *Funnel, n int64) { f.Winners += n })
}

// Len returns the number of recorded kill events.
func (k *KillTable) Len() int {
	if k == nil {
		return 0
	}
	k.s.mu.Lock()
	defer k.s.mu.Unlock()
	return len(k.s.events)
}

// Empty reports whether the table holds neither events nor funnels.
func (k *KillTable) Empty() bool {
	if k == nil {
		return true
	}
	k.s.mu.Lock()
	defer k.s.mu.Unlock()
	return len(k.s.events) == 0 && len(k.s.funnels) == 0
}

// Events returns a copy of every kill event in recording order.
func (k *KillTable) Events() []KillEvent {
	if k == nil {
		return nil
	}
	k.s.mu.Lock()
	defer k.s.mu.Unlock()
	out := make([]KillEvent, len(k.s.events))
	copy(out, k.s.events)
	return out
}

// TraceEvents returns the kill events stamped with the trace ID.
func (k *KillTable) TraceEvents(trace string) []KillEvent {
	if k == nil || trace == "" {
		return nil
	}
	k.s.mu.Lock()
	defer k.s.mu.Unlock()
	var out []KillEvent
	for _, ev := range k.s.events {
		if ev.Trace == trace {
			out = append(out, ev)
		}
	}
	return out
}

// Funnels returns a copy of every funnel row, sorted by (trace,
// function, target).
func (k *KillTable) Funnels() []Funnel {
	if k == nil {
		return nil
	}
	k.s.mu.Lock()
	defer k.s.mu.Unlock()
	out := make([]Funnel, 0, len(k.s.funnels))
	for _, f := range k.s.funnels {
		out = append(out, *f)
	}
	sortFunnels(out)
	return out
}

func sortFunnels(fs []Funnel) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Trace != fs[j].Trace {
			return fs[i].Trace < fs[j].Trace
		}
		if fs[i].Function != fs[j].Function {
			return fs[i].Function < fs[j].Function
		}
		return fs[i].Target < fs[j].Target
	})
}

// CaseStats aggregates one IO case's kill record on one target. A case
// that kills candidates from more than one binding family is a strong
// discriminating input — the exact thing a CEGIS replay loop wants
// to try first.
type CaseStats struct {
	Target   string           `json:"target"`
	Sig      string           `json:"sig"` // user-visible case identity
	Kills    int64            `json:"kills"`
	Families int              `json:"families"` // distinct binding families killed
	Mismatch map[string]int64 `json:"mismatch,omitempty"`
}

// KillDepthBucket counts the candidates killed at one 0-based case
// index. Index -1 holds caseless deaths (not-viable, timeout, panic).
type KillDepthBucket struct {
	CaseIndex int   `json:"case"`
	Kills     int64 `json:"kills"`
}

// TargetSearch is the per-target rollup inside a SearchSummary.
type TargetSearch struct {
	Target           string `json:"target"`
	Generated        int64  `json:"generated"`
	PreFiltered      int64  `json:"pre_filtered"`
	Dispatched       int64  `json:"dispatched"`
	Killed           int64  `json:"killed"`
	Survived         int64  `json:"survived"`
	Winners          int64  `json:"winners"`
	MultiFamilyCases int    `json:"multi_family_cases"`
}

// SearchSummary is the aggregated view of a kill table: the funnel
// totals, the kill-depth distribution, the per-case effectiveness
// ranking, and per-target rollups. Serialized into BENCH_synth.json's
// "search" section and the /status search block.
type SearchSummary struct {
	Generated   int64 `json:"generated"`
	PreFiltered int64 `json:"pre_filtered"`
	Dispatched  int64 `json:"dispatched"`
	Killed      int64 `json:"killed"`
	Survived    int64 `json:"survived"`
	Winners     int64 `json:"winners"`

	// KillDepth is the histogram of kills by 0-based case index
	// (bucket -1 = caseless), ascending.
	KillDepth []KillDepthBucket `json:"kill_depth,omitempty"`
	// Mismatch tallies kills by mismatch kind.
	Mismatch map[string]int64 `json:"mismatch,omitempty"`
	// Cases ranks IO cases by families-killed desc, kills desc, sig.
	Cases []CaseStats `json:"cases,omitempty"`
	// MultiFamilyCases counts cases that killed >1 binding family.
	MultiFamilyCases int `json:"multi_family_cases"`
	// PerTarget rolls the funnel and case stats up by target.
	PerTarget []TargetSearch `json:"per_target,omitempty"`
}

// Summary aggregates the whole table. Returns nil on a nil or empty
// table so JSON embeddings can omit the section.
func (k *KillTable) Summary() *SearchSummary {
	if k == nil {
		return nil
	}
	return k.summarize(func(string) bool { return true })
}

// TraceSummary aggregates only events and funnels stamped with the
// trace ID; nil when the trace recorded nothing.
func (k *KillTable) TraceSummary(trace string) *SearchSummary {
	if k == nil || trace == "" {
		return nil
	}
	return k.summarize(func(t string) bool { return t == trace })
}

func (k *KillTable) summarize(want func(trace string) bool) *SearchSummary {
	k.s.mu.Lock()
	events := make([]KillEvent, 0, len(k.s.events))
	for _, ev := range k.s.events {
		if want(ev.Trace) {
			events = append(events, ev)
		}
	}
	funnels := make([]Funnel, 0, len(k.s.funnels))
	for _, f := range k.s.funnels {
		if want(f.Trace) {
			funnels = append(funnels, *f)
		}
	}
	k.s.mu.Unlock()
	if len(events) == 0 && len(funnels) == 0 {
		return nil
	}

	sum := &SearchSummary{Mismatch: make(map[string]int64)}
	perTarget := make(map[string]*TargetSearch)
	target := func(name string) *TargetSearch {
		t := perTarget[name]
		if t == nil {
			t = &TargetSearch{Target: name}
			perTarget[name] = t
		}
		return t
	}
	for _, f := range funnels {
		sum.Generated += f.Generated
		sum.PreFiltered += f.PreFiltered
		sum.Dispatched += f.Dispatched
		sum.Killed += f.Killed
		sum.Survived += f.Survived
		sum.Winners += f.Winners
		t := target(f.Target)
		t.Generated += f.Generated
		t.PreFiltered += f.PreFiltered
		t.Dispatched += f.Dispatched
		t.Killed += f.Killed
		t.Survived += f.Survived
		t.Winners += f.Winners
	}

	type caseKey struct {
		target string
		sig    string
	}
	depth := make(map[int]int64)
	cases := make(map[caseKey]*CaseStats)
	families := make(map[caseKey]map[string]bool)
	for _, ev := range events {
		depth[ev.CaseIndex]++
		sum.Mismatch[ev.Mismatch]++
		if ev.CaseIndex < 0 || ev.CaseSig == "" {
			continue
		}
		key := caseKey{target: ev.Target, sig: ev.CaseSig}
		cs := cases[key]
		if cs == nil {
			cs = &CaseStats{Target: ev.Target, Sig: ev.CaseSig, Mismatch: make(map[string]int64)}
			cases[key] = cs
			families[key] = make(map[string]bool)
		}
		cs.Kills++
		cs.Mismatch[ev.Mismatch]++
		families[key][ev.Family] = true
	}
	for i := range depth {
		sum.KillDepth = append(sum.KillDepth, KillDepthBucket{CaseIndex: i, Kills: depth[i]})
	}
	sort.Slice(sum.KillDepth, func(i, j int) bool {
		return sum.KillDepth[i].CaseIndex < sum.KillDepth[j].CaseIndex
	})
	for key, cs := range cases {
		cs.Families = len(families[key])
		sum.Cases = append(sum.Cases, *cs)
		if cs.Families > 1 {
			sum.MultiFamilyCases++
			target(cs.Target).MultiFamilyCases++
		}
	}
	sort.Slice(sum.Cases, func(i, j int) bool {
		a, b := sum.Cases[i], sum.Cases[j]
		if a.Families != b.Families {
			return a.Families > b.Families
		}
		if a.Kills != b.Kills {
			return a.Kills > b.Kills
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Sig < b.Sig
	})
	for _, name := range sortedKeys(perTarget) {
		sum.PerTarget = append(sum.PerTarget, *perTarget[name])
	}
	return sum
}

// WriteSearchReport renders the human search report: the funnel, the
// kill-depth distribution, and the top-N discriminating inputs.
// Deterministic for a deterministic table (fixed seed, Workers=1).
func (k *KillTable) WriteSearchReport(out io.Writer, topN int) error {
	sum := k.Summary()
	w := &errWriter{w: out}
	if sum == nil {
		fmt.Fprintf(w, "search observatory: no events recorded\n")
		return w.err
	}
	fmt.Fprintf(w, "search funnel: %d generated, %d pre-filtered, %d dispatched, %d killed, %d survived, %d winner(s)\n",
		sum.Generated, sum.PreFiltered, sum.Dispatched, sum.Killed,
		sum.Survived, sum.Winners)
	fmt.Fprintf(w, "\nkill depth (0-based case index at death):\n")
	for _, b := range sum.KillDepth {
		if b.CaseIndex < 0 {
			fmt.Fprintf(w, "  no single case (not-viable/timeout/panic): %d\n", b.Kills)
			continue
		}
		fmt.Fprintf(w, "  case %d: %d kill(s)\n", b.CaseIndex, b.Kills)
	}
	fmt.Fprintf(w, "\nmismatch kinds:\n")
	for _, kind := range sortedKeys(sum.Mismatch) {
		fmt.Fprintf(w, "  %s: %d\n", kind, sum.Mismatch[kind])
	}
	if len(sum.Cases) > 0 {
		fmt.Fprintf(w, "\ntop discriminating inputs:\n")
		for i, cs := range sum.Cases {
			if topN > 0 && i >= topN {
				fmt.Fprintf(w, "  ... %d more case(s)\n", len(sum.Cases)-topN)
				break
			}
			fmt.Fprintf(w, "  %2d. [%s] %s — %d kill(s) across %d binding family(ies)\n",
				i+1, cs.Target, cs.Sig, cs.Kills, cs.Families)
		}
		fmt.Fprintf(w, "cases killing more than one binding family: %d\n", sum.MultiFamilyCases)
	}
	if len(sum.PerTarget) > 0 {
		fmt.Fprintf(w, "\nper target:\n")
		for _, t := range sum.PerTarget {
			fmt.Fprintf(w, "  %-10s generated %d, dispatched %d, killed %d, survived %d, winners %d, multi-family cases %d\n",
				t.Target, t.Generated, t.Dispatched, t.Killed, t.Survived,
				t.Winners, t.MultiFamilyCases)
		}
	}
	return w.err
}

// WritePrometheus renders the facc_search_* families. Nil-safe: a nil
// table writes nothing.
func (k *KillTable) WritePrometheus(out io.Writer) error {
	if k == nil {
		return nil
	}
	sum := k.Summary()
	if sum == nil {
		return nil
	}
	w := &errWriter{w: out}
	fmt.Fprintf(w, "# HELP facc_search_candidates_total Binding candidates by funnel stage.\n")
	fmt.Fprintf(w, "# TYPE facc_search_candidates_total counter\n")
	for _, t := range sum.PerTarget {
		for _, stage := range []struct {
			name string
			n    int64
		}{
			{"generated", t.Generated},
			{"pre_filtered", t.PreFiltered},
			{"dispatched", t.Dispatched},
			{"killed", t.Killed},
			{"survived", t.Survived},
			{"winner", t.Winners},
		} {
			fmt.Fprintf(w, "facc_search_candidates_total{target=%q,stage=%q} %d\n",
				t.Target, stage.name, stage.n)
		}
	}
	fmt.Fprintf(w, "# HELP facc_search_kills_total Candidate kills by mismatch kind.\n")
	fmt.Fprintf(w, "# TYPE facc_search_kills_total counter\n")
	for _, kind := range sortedKeys(sum.Mismatch) {
		fmt.Fprintf(w, "facc_search_kills_total{mismatch=%q} %d\n", kind, sum.Mismatch[kind])
	}
	fmt.Fprintf(w, "# HELP facc_search_kill_depth_total Kills by 0-based IO case index (-1 = no single case).\n")
	fmt.Fprintf(w, "# TYPE facc_search_kill_depth_total counter\n")
	for _, b := range sum.KillDepth {
		fmt.Fprintf(w, "facc_search_kill_depth_total{case=\"%d\"} %d\n", b.CaseIndex, b.Kills)
	}
	fmt.Fprintf(w, "# HELP facc_search_multi_family_cases IO cases that killed more than one binding family.\n")
	fmt.Fprintf(w, "# TYPE facc_search_multi_family_cases gauge\n")
	for _, t := range sum.PerTarget {
		fmt.Fprintf(w, "facc_search_multi_family_cases{target=%q} %d\n", t.Target, t.MultiFamilyCases)
	}
	return w.err
}
