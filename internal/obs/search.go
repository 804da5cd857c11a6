package obs

import (
	"fmt"
	"io"
	"maps"
	"sort"
)

// The search observatory records *why* the generate-and-test loop
// converges: which IO case killed which binding candidate, how early,
// and how the candidate population moves through the funnel
// (generated → pre-filtered → dispatched → killed/survived → winner).
// It is a fold over the event stream: the enumerator's emitted and
// pruned events form the funnel head, each fuzz event is a dispatched
// candidate and, unless it survived, a kill attributed to its
// discriminating IO case, and each accepted event is a winner.
// Synthesis records what a sequential run decides, at every worker
// count: a case run past its candidate's kill never decides anything.

// CaseStats aggregates one IO case's kill record on one target. A case
// that kills candidates from more than one binding family is a strong
// discriminating input.
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

// SearchSummary is the search observatory's fold of the event stream:
// the funnel totals, the kill-depth distribution, the per-case
// effectiveness ranking, and per-target rollups. Serialized into the
// /status search block and faccd's /debug/requests records.
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

// FoldSearch folds evs into the search observatory's summary; nil when
// evs hold no binding, fuzz or accepted event, so JSON embeddings can
// omit the section.
func FoldSearch(evs []Event) *SearchSummary {
	var f searchFold
	f.add(evs)
	return f.summary()
}

// searchFold accumulates the search observatory over any number of
// batches of events: every count adds and a case's binding families
// unite, so the fold of batches equals the fold of their concatenation.
type searchFold struct {
	targets  map[string]*TargetSearch // funnel counts; MultiFamilyCases is left to summary
	mismatch map[string]int64
	depth    map[int]int64
	cases    map[caseKey]*caseFold
}

// caseKey identifies one IO case on one target.
type caseKey struct {
	target string
	sig    string
}

// caseFold is one IO case's kill record.
type caseFold struct {
	kills    int64
	mismatch map[string]int64
	families map[string]bool
}

// target returns the funnel of a target, making it on first use.
func (f *searchFold) target(name string) *TargetSearch {
	if f.targets == nil {
		f.targets = make(map[string]*TargetSearch)
		f.mismatch = make(map[string]int64)
		f.depth = make(map[int]int64)
		f.cases = make(map[caseKey]*caseFold)
	}
	t := f.targets[name]
	if t == nil {
		t = &TargetSearch{Target: name}
		f.targets[name] = t
	}
	return t
}

// caseOf returns the kill record of a case, making it on first use; the
// case's target is already in the fold.
func (f *searchFold) caseOf(key caseKey) *caseFold {
	c := f.cases[key]
	if c == nil {
		c = &caseFold{mismatch: make(map[string]int64), families: make(map[string]bool)}
		f.cases[key] = c
	}
	return c
}

// add folds evs.
func (f *searchFold) add(evs []Event) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case KindEmitted:
			f.target(ev.Target).Generated++
		case KindPruned:
			t := f.target(ev.Target)
			t.Generated++
			t.PreFiltered++
		case KindAccepted:
			f.target(ev.Target).Winners++
		case KindFuzz:
			t := f.target(ev.Target)
			t.Dispatched++
			if ev.Outcome == OutcomeSurvived {
				t.Survived++
			}
			if !ev.Killed() {
				continue
			}
			t.Killed++
			mismatch := ev.KillMismatch()
			f.depth[ev.Case]++
			f.mismatch[mismatch]++
			if ev.Case < 0 || ev.CaseSig == "" {
				continue
			}
			c := f.caseOf(caseKey{target: ev.Target, sig: ev.CaseSig})
			c.kills++
			c.mismatch[mismatch]++
			c.families[ev.Family] = true
		}
	}
}

// merge folds o in.
func (f *searchFold) merge(o *searchFold) {
	for name, ot := range o.targets {
		t := f.target(name)
		t.Generated += ot.Generated
		t.PreFiltered += ot.PreFiltered
		t.Dispatched += ot.Dispatched
		t.Killed += ot.Killed
		t.Survived += ot.Survived
		t.Winners += ot.Winners
	}
	for kind, n := range o.mismatch {
		f.mismatch[kind] += n
	}
	for i, n := range o.depth {
		f.depth[i] += n
	}
	for key, oc := range o.cases {
		c := f.caseOf(key)
		c.kills += oc.kills
		for kind, n := range oc.mismatch {
			c.mismatch[kind] += n
		}
		for family := range oc.families {
			c.families[family] = true
		}
	}
}

// summary renders the fold; nil when it saw no binding, fuzz or
// accepted event.
func (f *searchFold) summary() *SearchSummary {
	if len(f.targets) == 0 {
		return nil
	}
	sum := &SearchSummary{Mismatch: maps.Clone(f.mismatch)}
	for i, n := range f.depth {
		sum.KillDepth = append(sum.KillDepth, KillDepthBucket{CaseIndex: i, Kills: n})
	}
	sort.Slice(sum.KillDepth, func(i, j int) bool {
		return sum.KillDepth[i].CaseIndex < sum.KillDepth[j].CaseIndex
	})
	multi := make(map[string]int)
	for key, c := range f.cases {
		cs := CaseStats{Target: key.target, Sig: key.sig, Kills: c.kills,
			Families: len(c.families), Mismatch: maps.Clone(c.mismatch)}
		sum.Cases = append(sum.Cases, cs)
		if cs.Families > 1 {
			sum.MultiFamilyCases++
			multi[key.target]++
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
	for _, name := range sortedKeys(f.targets) {
		t := *f.targets[name]
		t.MultiFamilyCases = multi[name]
		sum.Generated += t.Generated
		sum.PreFiltered += t.PreFiltered
		sum.Dispatched += t.Dispatched
		sum.Killed += t.Killed
		sum.Survived += t.Survived
		sum.Winners += t.Winners
		sum.PerTarget = append(sum.PerTarget, t)
	}
	return sum
}

// WriteSearchReport renders the view's search report: the funnel, the
// kill-depth distribution, and the top-N discriminating inputs.
// Deterministic for a deterministic run (fixed seed, Workers=1).
func (e *Events) WriteSearchReport(out io.Writer, topN int) error {
	_, _, sum := e.Totals()
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

// writePrometheus renders the facc_search_* families. Nil-safe: a nil
// summary writes nothing.
func (sum *SearchSummary) writePrometheus(out io.Writer) error {
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
