package eval

import (
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
	kills := obs.NewKillTable()
	if err := SearchBench(nil, targets, 3, kills); err != nil {
		t.Fatal(err)
	}
	sum := kills.Summary()
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
