package eval

import (
	"context"
	"testing"

	"facc/internal/obs"
)

// TestSearchBenchMultiFamilyPerTarget is the acceptance criterion for
// the search observatory: on the bench corpus, every target must have
// at least one IO case that killed candidates from more than one
// binding family, so kill events attribute each death to its family.
func TestSearchBenchMultiFamilyPerTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus compile in -short mode")
	}
	targets := []string{"ffta", "powerquad", "fftw"}
	ev := obs.NewEvents()
	if err := SearchBench(nil, targets, 3, ev); err != nil {
		t.Fatal(err)
	}
	sum := obs.FoldSearch(ev.Snapshot())
	if sum == nil {
		t.Fatal("corpus compile recorded no search events")
	}
	perTarget := map[string]obs.TargetSearch{}
	for _, ts := range sum.PerTarget {
		perTarget[ts.Target] = ts
	}
	for _, target := range targets {
		ts, ok := perTarget[target]
		if !ok {
			t.Errorf("%s: no funnel recorded", target)
			continue
		}
		if ts.MultiFamilyCases < 1 {
			t.Errorf("%s: %d multi-family discriminating cases, want >= 1",
				target, ts.MultiFamilyCases)
		}
		if ts.Dispatched == 0 || ts.Winners == 0 {
			t.Errorf("%s: funnel = %+v, want dispatched and winners > 0", target, ts)
		}
	}
}

// TestCompileAllFillsSearchFold: the figure experiments' corpus compile
// records into the one event stream every report folds, so a figure run
// with -search-report or -costs has a search and a cost ledger to show.
func TestCompileAllFillsSearchFold(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus compile in -short mode")
	}
	ev := obs.NewEvents()
	outcomes, err := CompileAll(context.Background(), []string{"ffta"}, 3, nil, ev)
	if err != nil {
		t.Fatal(err)
	}
	adapters := 0
	for _, o := range outcomes {
		if o.OK {
			adapters++
		}
	}
	evs := ev.Snapshot()
	sum := obs.FoldSearch(evs)
	if sum == nil || sum.Dispatched == 0 || sum.Winners != int64(adapters) {
		t.Fatalf("search fold = %+v, want candidates dispatched and %d winner(s)", sum, adapters)
	}
	if n, costs := obs.FoldCosts(evs); n == 0 || costs.Total.Verdicts[obs.VerdictWinner] != adapters {
		t.Errorf("cost fold: %d account(s), verdicts %v; want %d winner(s)",
			n, costs.Total.Verdicts, adapters)
	}
}
