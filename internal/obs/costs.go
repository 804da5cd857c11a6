package obs

import (
	"fmt"
	"io"
	"sort"
)

// The cost ledger is a fold over the event stream: one account per
// fuzzed candidate, keyed by (trace, function, target, candidate). Every
// account ends in exactly one verdict; VerdictWinner marks the account
// whose work was *useful* (it became the adapter), everything else is
// *speculative* — effort the deterministic search result discards.
// Oracle hits are *shared* work: lookups answered from the memo table
// instead of re-interpreting the user program.
const (
	VerdictWinner = "winner"
)

// accountKey identifies one candidate account: the (trace, function,
// target, candidate) tuple every interpreter test, step and oracle
// lookup is charged to.
type accountKey struct {
	trace     string
	function  string
	target    string
	candidate string
}

// account is one candidate's cost and how it ended.
type account struct {
	target  string
	verdict string
	tests   int64
	steps   int64
	hits    int64
	misses  int64
}

// FoldCosts folds evs into the cost ledger: the number of candidate
// accounts and their per-target rollup. Each fuzz event books its
// candidate's work into the account and its outcome as the account's
// verdict, and the accepted event turns the winner's verdict into
// VerdictWinner; a later verdict for the same account replaces an
// earlier one. A candidate cut off by a compile cancellation books its
// work with no verdict ("undecided"), or nothing if it started no case.
func FoldCosts(evs []Event) (accounts int, sum CostSummary) {
	f := costFold{}
	f.add(evs)
	var t costTotals
	t.book(f)
	return t.accounts, t.summary()
}

// costFold is the candidate accounts of a batch of events.
type costFold map[accountKey]*account

// add folds evs into the batch's accounts.
func (f costFold) add(evs []Event) {
	get := func(ev *Event) *account {
		k := accountKey{trace: ev.Trace, function: ev.Function, target: ev.Target,
			candidate: ev.Candidate}
		a := f[k]
		if a == nil {
			a = &account{target: ev.Target}
			f[k] = a
		}
		return a
	}
	for i := range evs {
		ev := &evs[i]
		switch {
		case ev.Kind == KindFuzz && (ev.Outcome != "" || ev.Started > 0):
			a := get(ev)
			a.tests += ev.Started
			a.steps += ev.Steps
			a.hits += ev.OracleHits
			a.misses += ev.OracleMisses
			if ev.Outcome != "" {
				a.verdict = ev.Outcome
			}
		case ev.Kind == KindAccepted:
			get(ev).verdict = VerdictWinner
		}
	}
}

// costTotals rolls booked accounts up per target; the ratios wait for
// summary. Batches book into one costTotals as accounts of their own.
type costTotals struct {
	accounts int
	targets  map[string]*TargetCost
}

// target returns the rollup of a target, making it on first use.
func (t *costTotals) target(name string) *TargetCost {
	if t.targets == nil {
		t.targets = map[string]*TargetCost{}
	}
	tc := t.targets[name]
	if tc == nil {
		tc = &TargetCost{Target: name}
		t.targets[name] = tc
	}
	return tc
}

// book adds every account of f.
func (t *costTotals) book(f costFold) {
	for _, a := range f {
		t.target(a.target).add(a)
	}
	t.accounts += len(f)
}

// merge adds o's rollups.
func (t *costTotals) merge(o *costTotals) {
	for name, tc := range o.targets {
		t.target(name).merge(tc)
	}
	t.accounts += o.accounts
}

// summary renders the rollups, sorted by target, with their grand total
// and ratios.
func (t *costTotals) summary() CostSummary {
	sum := CostSummary{Total: TargetCost{Target: "all"}}
	for _, name := range sortedKeys(t.targets) {
		tc := TargetCost{Target: name}
		tc.merge(t.targets[name])
		tc.finish()
		sum.Targets = append(sum.Targets, tc)
		sum.Total.merge(t.targets[name])
	}
	sum.Total.finish()
	return sum
}

// TargetCost aggregates one target's accounts into the useful /
// speculative / shared decomposition.
type TargetCost struct {
	Target string `json:"target"`

	// Useful work: charged to candidates that became adapters.
	UsefulTests int64 `json:"useful_tests"`
	UsefulSteps int64 `json:"useful_steps"`

	// Speculative work: charged to killed/failed candidates.
	SpeculativeTests int64 `json:"speculative_tests"`
	SpeculativeSteps int64 `json:"speculative_steps"`

	// Shared work: oracle lookups answered from the memo table. The hit
	// split shows *who* benefited — winners or losers.
	OracleHits       int64 `json:"oracle_hits"`
	OracleMisses     int64 `json:"oracle_misses"`
	UsefulOracleHits int64 `json:"useful_oracle_hits"`

	// WasteRatio = speculative tests / all tests (0 when nothing ran).
	WasteRatio float64 `json:"waste_ratio"`
	// OracleHitRate = hits / (hits + misses) (0 when nothing looked up).
	OracleHitRate float64 `json:"oracle_hit_rate"`

	// Verdicts counts candidate accounts by final verdict.
	Verdicts map[string]int `json:"verdicts"`
}

// CostSummary is the ledger rolled up per target plus a grand total.
type CostSummary struct {
	Targets []TargetCost `json:"targets"` // sorted by target name
	Total   TargetCost   `json:"total"`   // Target == "all"
}

// finish derives the ratios after accumulation.
func (tc *TargetCost) finish() {
	if total := tc.UsefulTests + tc.SpeculativeTests; total > 0 {
		tc.WasteRatio = float64(tc.SpeculativeTests) / float64(total)
	}
	if lookups := tc.OracleHits + tc.OracleMisses; lookups > 0 {
		tc.OracleHitRate = float64(tc.OracleHits) / float64(lookups)
	}
}

// add books one account into the aggregate.
func (tc *TargetCost) add(a *account) {
	if a.verdict == VerdictWinner {
		tc.UsefulTests += a.tests
		tc.UsefulSteps += a.steps
		tc.UsefulOracleHits += a.hits
	} else {
		tc.SpeculativeTests += a.tests
		tc.SpeculativeSteps += a.steps
	}
	tc.OracleHits += a.hits
	tc.OracleMisses += a.misses
	if tc.Verdicts == nil {
		tc.Verdicts = map[string]int{}
	}
	v := a.verdict
	if v == "" {
		v = "undecided"
	}
	tc.Verdicts[v]++
}

// merge adds o's work and verdicts (not its ratios).
func (tc *TargetCost) merge(o *TargetCost) {
	tc.UsefulTests += o.UsefulTests
	tc.UsefulSteps += o.UsefulSteps
	tc.SpeculativeTests += o.SpeculativeTests
	tc.SpeculativeSteps += o.SpeculativeSteps
	tc.OracleHits += o.OracleHits
	tc.OracleMisses += o.OracleMisses
	tc.UsefulOracleHits += o.UsefulOracleHits
	for v, n := range o.Verdicts {
		if tc.Verdicts == nil {
			tc.Verdicts = map[string]int{}
		}
		tc.Verdicts[v] += n
	}
}

// WriteCostReport renders the view's cost ledger — the per-target waste
// breakdown — as deterministic human-readable text: the body of
// `facc -costs`.
func (e *Events) WriteCostReport(out io.Writer) error {
	w := &errWriter{w: out}
	n, sum, _ := e.Totals()
	fmt.Fprintf(w, "synthesis cost ledger: %d candidate account(s)\n", n)
	if len(sum.Targets) == 0 {
		fmt.Fprintf(w, "  (no work charged)\n")
		return w.err
	}
	writeOne := func(tc *TargetCost) {
		fmt.Fprintf(w, "\ntarget %s:\n", tc.Target)
		fmt.Fprintf(w, "  tests:  useful %d | speculative %d (waste %.1f%%)\n",
			tc.UsefulTests, tc.SpeculativeTests, 100*tc.WasteRatio)
		fmt.Fprintf(w, "  steps:  useful %d | speculative %d\n",
			tc.UsefulSteps, tc.SpeculativeSteps)
		fmt.Fprintf(w, "  oracle: %d hit(s) (shared) / %d miss(es), hit rate %.1f%%"+
			" — %d hit(s) on the winner\n",
			tc.OracleHits, tc.OracleMisses, 100*tc.OracleHitRate, tc.UsefulOracleHits)
		verdicts := make([]string, 0, len(tc.Verdicts))
		for v := range tc.Verdicts {
			verdicts = append(verdicts, v)
		}
		sort.Strings(verdicts)
		fmt.Fprintf(w, "  verdicts:")
		for _, v := range verdicts {
			fmt.Fprintf(w, " %s ×%d", v, tc.Verdicts[v])
		}
		fmt.Fprintf(w, "\n")
	}
	for i := range sum.Targets {
		writeOne(&sum.Targets[i])
	}
	if len(sum.Targets) > 1 {
		writeOne(&sum.Total)
	}
	return w.err
}

// writePrometheus renders the per-target aggregates as the
// facc_ledger_* families, labeled by target and work class; nothing when
// no work was charged. Deterministic: targets sorted, classes in fixed
// order.
func (sum *CostSummary) writePrometheus(w io.Writer) error {
	ew := &errWriter{w: w}
	if len(sum.Targets) == 0 {
		return nil
	}
	fmt.Fprintf(ew, "# TYPE facc_ledger_tests_total counter\n")
	for i := range sum.Targets {
		tc := &sum.Targets[i]
		fmt.Fprintf(ew, "facc_ledger_tests_total{target=%q,class=\"useful\"} %d\n",
			tc.Target, tc.UsefulTests)
		fmt.Fprintf(ew, "facc_ledger_tests_total{target=%q,class=\"speculative\"} %d\n",
			tc.Target, tc.SpeculativeTests)
	}
	fmt.Fprintf(ew, "# TYPE facc_ledger_interp_steps_total counter\n")
	for i := range sum.Targets {
		tc := &sum.Targets[i]
		fmt.Fprintf(ew, "facc_ledger_interp_steps_total{target=%q,class=\"useful\"} %d\n",
			tc.Target, tc.UsefulSteps)
		fmt.Fprintf(ew, "facc_ledger_interp_steps_total{target=%q,class=\"speculative\"} %d\n",
			tc.Target, tc.SpeculativeSteps)
	}
	fmt.Fprintf(ew, "# TYPE facc_ledger_oracle_lookups_total counter\n")
	for i := range sum.Targets {
		tc := &sum.Targets[i]
		fmt.Fprintf(ew, "facc_ledger_oracle_lookups_total{target=%q,result=\"hit\"} %d\n",
			tc.Target, tc.OracleHits)
		fmt.Fprintf(ew, "facc_ledger_oracle_lookups_total{target=%q,result=\"miss\"} %d\n",
			tc.Target, tc.OracleMisses)
	}
	fmt.Fprintf(ew, "# TYPE facc_ledger_waste_ratio gauge\n")
	for i := range sum.Targets {
		tc := &sum.Targets[i]
		fmt.Fprintf(ew, "facc_ledger_waste_ratio{target=%q} %g\n", tc.Target, tc.WasteRatio)
	}
	fmt.Fprintf(ew, "# TYPE facc_ledger_oracle_hit_rate gauge\n")
	for i := range sum.Targets {
		tc := &sum.Targets[i]
		fmt.Fprintf(ew, "facc_ledger_oracle_hit_rate{target=%q} %g\n", tc.Target, tc.OracleHitRate)
	}
	return ew.err
}
