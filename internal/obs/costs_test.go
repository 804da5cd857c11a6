package obs

import (
	"strings"
	"sync"
	"testing"
)

// fuzz is a fuzz event for candidate cand of fft on target: its verdict
// and the work its started cases cost.
func fuzz(target, cand, outcome string, started, steps, hits, misses int64) Event {
	return Event{Kind: KindFuzz, Function: "fft", Target: target, Candidate: cand,
		Outcome: outcome, Started: started, Steps: steps, OracleHits: hits, OracleMisses: misses}
}

func accepted(target, cand string) Event {
	return Event{Kind: KindAccepted, Function: "fft", Target: target, Candidate: cand}
}

func record(ev *Events, evs ...Event) *Events {
	for _, e := range evs {
		ev.Record(e)
	}
	return ev
}

func TestLedgerAccounting(t *testing.T) {
	evs := record(NewEvents(),
		// The same candidate fuzzed twice under one trace books one
		// account; the later verdict, then the acceptance, wins.
		fuzz("ffta", "b0", "behavior-mismatch", 4, 60, 0, 4),
		fuzz("ffta", "b0", "survived", 6, 40, 1, 5),
		accepted("ffta", "b0"),
		// Cut off by a compile cancellation: before its first case it
		// books nothing, after it its work is undecided.
		fuzz("ffta", "b8", "", 0, 0, 0, 0),
		fuzz("ffta", "b9", "", 2, 30, 1, 1),
	).Snapshot()

	n, sum := FoldCosts(evs)
	if n != 2 {
		t.Fatalf("accounts = %d, want 2", n)
	}
	tc := sum.Total
	if tc.UsefulTests != 10 || tc.UsefulSteps != 100 || tc.SpeculativeTests != 2 ||
		tc.SpeculativeSteps != 30 {
		t.Errorf("work not accumulated: %+v", tc)
	}
	if tc.OracleHits != 2 || tc.OracleMisses != 10 || tc.UsefulOracleHits != 1 {
		t.Errorf("oracle lookups = %d/%d (%d useful), want 2/10 (1)",
			tc.OracleHits, tc.OracleMisses, tc.UsefulOracleHits)
	}
	if tc.Verdicts[VerdictWinner] != 1 || tc.Verdicts["undecided"] != 1 || len(tc.Verdicts) != 2 {
		t.Errorf("verdicts = %v, want winner ×1 undecided ×1", tc.Verdicts)
	}
}

// TestLedgerEntriesSorted: the per-target rollup lists targets in name
// order, whatever order their events arrived in.
func TestLedgerEntriesSorted(t *testing.T) {
	_, sum := FoldCosts(record(NewEvents(),
		fuzz("powerquad", "a", "survived", 1, 0, 0, 1),
		fuzz("fftw", "b", "survived", 1, 0, 0, 1),
		fuzz("ffta", "z", "survived", 1, 0, 0, 1),
		fuzz("ffta", "a", "survived", 1, 0, 0, 1),
	).Snapshot())
	var order []string
	for _, tc := range sum.Targets {
		order = append(order, tc.Target)
	}
	if got := strings.Join(order, ","); got != "ffta,fftw,powerquad" {
		t.Errorf("target order = %s", got)
	}
}

// TestLedgerScoped: accounts are kept apart per trace, and a scoped
// view's events fold into exactly that trace's accounts.
func TestLedgerScoped(t *testing.T) {
	root := NewEvents()
	a := root.Scoped("trace-a")
	b := root.Scoped("trace-b")
	a.Record(fuzz("ffta", "cand", "survived", 3, 0, 0, 3))
	b.Record(fuzz("ffta", "cand", "survived", 5, 0, 0, 5))
	root.Record(fuzz("ffta", "cand", "survived", 7, 0, 0, 7))

	if n, _ := FoldCosts(root.Snapshot()); n != 3 {
		t.Fatalf("accounts = %d, want 3 (one per trace scope)", n)
	}
	n, sum := FoldCosts(a.Snapshot())
	if n != 1 || sum.Total.SpeculativeTests != 3 {
		t.Errorf("trace-a: %d account(s), %+v", n, sum.Total)
	}
	if n, _ := FoldCosts(root.Scoped("trace-c").Snapshot()); n != 0 {
		t.Errorf("unknown trace booked %d accounts", n)
	}
}

func TestLedgerSummary(t *testing.T) {
	_, sum := FoldCosts(record(NewEvents(),
		// Winner: 10 tests, 2 oracle hits.
		fuzz("ffta", "win", "survived", 10, 50, 2, 0),
		// Superseded loser: 30 tests, 1 hit 1 miss.
		fuzz("ffta", "lose", "superseded", 30, 150, 1, 1),
		accepted("ffta", "win"),
		// A second target with only an undecided account.
		fuzz("fftw", "x", "", 5, 0, 0, 0),
	).Snapshot())

	if len(sum.Targets) != 2 {
		t.Fatalf("targets = %d, want 2", len(sum.Targets))
	}
	ffta := sum.Targets[0]
	if ffta.Target != "ffta" {
		t.Fatalf("targets not sorted: %v", sum.Targets)
	}
	if ffta.UsefulTests != 10 || ffta.SpeculativeTests != 30 {
		t.Errorf("useful/speculative = %d/%d, want 10/30",
			ffta.UsefulTests, ffta.SpeculativeTests)
	}
	if ffta.WasteRatio != 0.75 {
		t.Errorf("waste ratio = %g, want 0.75", ffta.WasteRatio)
	}
	if ffta.OracleHits != 3 || ffta.OracleMisses != 1 || ffta.UsefulOracleHits != 2 {
		t.Errorf("oracle hits/misses/useful = %d/%d/%d, want 3/1/2",
			ffta.OracleHits, ffta.OracleMisses, ffta.UsefulOracleHits)
	}
	if ffta.OracleHitRate != 0.75 {
		t.Errorf("oracle hit rate = %g, want 0.75", ffta.OracleHitRate)
	}
	if ffta.Verdicts["winner"] != 1 || ffta.Verdicts["superseded"] != 1 {
		t.Errorf("verdicts = %v", ffta.Verdicts)
	}
	if sum.Targets[1].Verdicts["undecided"] != 1 {
		t.Errorf("empty verdict should count as undecided: %v", sum.Targets[1].Verdicts)
	}
	if sum.Total.Target != "all" || sum.Total.UsefulTests != 10 ||
		sum.Total.SpeculativeTests != 35 {
		t.Errorf("total = %+v", sum.Total)
	}
}

func TestLedgerCostReport(t *testing.T) {
	ev := record(NewEvents(),
		fuzz("ffta", "win", "survived", 10, 0, 0, 10),
		accepted("ffta", "win"),
		fuzz("ffta", "lose", "superseded", 30, 0, 0, 30))

	var sb strings.Builder
	if err := ev.WriteCostReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"synthesis cost ledger: 2 candidate account(s)",
		"target ffta:",
		"useful 10 | speculative 30 (waste 75.0%)",
		"winner ×1",
		"superseded ×1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cost report missing %q:\n%s", want, out)
		}
	}

	// Empty stream: header plus the no-work line, no error.
	var empty strings.Builder
	if err := NewEvents().WriteCostReport(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "(no work charged)") {
		t.Errorf("empty report: %q", empty.String())
	}
}

func TestLedgerPrometheus(t *testing.T) {
	ev := record(NewEvents(),
		fuzz("ffta", "win", "survived", 10, 50, 1, 9),
		accepted("ffta", "win"),
		fuzz("ffta", "lose", "superseded", 30, 0, 0, 0))

	var sb strings.Builder
	if err := ev.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`facc_ledger_tests_total{target="ffta",class="useful"} 10`,
		`facc_ledger_tests_total{target="ffta",class="speculative"} 30`,
		`facc_ledger_interp_steps_total{target="ffta",class="useful"} 50`,
		`facc_ledger_oracle_lookups_total{target="ffta",result="hit"} 1`,
		`facc_ledger_waste_ratio{target="ffta"} 0.75`,
		`facc_ledger_oracle_hit_rate{target="ffta"} 0.1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// A stream with no fuzzed candidate contributes nothing (the
	// /metrics append path).
	var nb strings.Builder
	only := record(NewEvents(), Event{Kind: KindCompile})
	if err := only.WritePrometheus(&nb); err != nil || nb.Len() != 0 {
		t.Errorf("candidate-free exposition: err=%v out=%q", err, nb.String())
	}
}

// TestLedgerConcurrent records fuzz events into one stream from many
// goroutines across scoped views while others fold it — run under -race
// this is the data-race proof for the faccd path (concurrent compiles
// recording while /status folds).
func TestLedgerConcurrent(t *testing.T) {
	root := NewEvents()
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := root
			if w%2 == 0 {
				ev = root.Scoped("trace-a")
			}
			for i := 0; i < iters; i++ {
				ev.Record(fuzz("ffta", "cand", "survived", 1, 2, 1, 0))
				_, _ = FoldCosts(root.Snapshot())
				_ = FoldSearch(root.Scoped("trace-a").Snapshot())
			}
		}(w)
	}
	wg.Wait()
	if _, sum := FoldCosts(root.Snapshot()); sum.Total.SpeculativeTests != workers*iters {
		t.Errorf("total tests = %d, want %d (lost updates)",
			sum.Total.SpeculativeTests, workers*iters)
	}
}

// TestNilLedgerSafe: on a nil stream a candidate's work and verdict
// book nothing and cost nothing — its scoped view stays nil, it folds
// to no accounts, and its cost report says so.
func TestNilLedgerSafe(t *testing.T) {
	var ev *Events
	ev.Record(fuzz("ffta", "c", "survived", 1, 1, 1, 0))
	ev.Record(accepted("ffta", "c"))
	if ev.Scoped("id") != nil {
		t.Error("nil.Scoped should stay nil")
	}
	if n, sum := FoldCosts(ev.Scoped("id").Snapshot()); n != 0 || len(sum.Targets) != 0 {
		t.Errorf("nil stream folds to %d account(s): %+v", n, sum)
	}
	var sb strings.Builder
	if err := ev.WriteCostReport(&sb); err != nil ||
		!strings.Contains(sb.String(), "0 candidate account(s)") {
		t.Errorf("nil cost report: err=%v out=%q", err, sb.String())
	}
	allocs := testing.AllocsPerRun(500, func() {
		ev.Record(fuzz("ffta", "c", "survived", 1, 1, 1, 0))
		ev.Scoped("id").Record(accepted("ffta", "c"))
	})
	if allocs != 0 {
		t.Errorf("nil stream allocates %.0f per charge cycle, want 0", allocs)
	}
}

// TestTraceEntriesFiltersSorted: one trace's view reads exactly the
// trace's events of the whole stream, in record order, and folds into
// the same accounts as those events, on a stream shared by several
// traces and the unscoped view.
func TestTraceEntriesFiltersSorted(t *testing.T) {
	root := NewEvents()
	traces := []string{"t3", "t1", "", "t2"}
	for i := 0; i < 40; i++ {
		ev := root.Scoped(traces[i%len(traces)])
		target := []string{"fftw", "ffta", "powerquad"}[i%3]
		ev.Record(fuzz(target, "cand"+string(rune('z'-i%26)), "survived", int64(i+1), 0,
			int64(i%2), int64(1-i%2)))
	}
	all := root.Snapshot()
	for _, trace := range traces[:2] {
		var want []Event
		for _, e := range all {
			if e.Trace == trace {
				want = append(want, e)
			}
		}
		got := root.Scoped(trace).Snapshot()
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("trace %s: %d events, want %d", trace, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("trace %s event %d = %+v, want %+v", trace, i, got[i], want[i])
			}
		}
		gn, gsum := FoldCosts(got)
		wn, wsum := FoldCosts(want)
		if gn != wn || gsum.Total.SpeculativeTests != wsum.Total.SpeculativeTests {
			t.Errorf("trace %s: folds differ: %d/%+v vs %d/%+v", trace, gn, gsum.Total, wn, wsum.Total)
		}
	}
}
