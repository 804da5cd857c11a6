package eval

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSynthBenchSmoke runs the regression harness at a reduced scale and
// checks the report's internal consistency and JSON round trip — the full
// configuration is exercised by `make bench-json`.
func TestSynthBenchSmoke(t *testing.T) {
	rep, err := SynthBench(nil, []string{"fftw"}, 2, []int{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(rep.Runs))
	}
	for _, run := range rep.Runs {
		if run.Adapters == 0 {
			t.Errorf("workers=%d: no adapters synthesized", run.Workers)
		}
		if run.TestsRun == 0 || run.TestsPerSec == 0 {
			t.Errorf("workers=%d: no fuzz throughput recorded", run.Workers)
		}
	}
	if !rep.AdaptersIdentical {
		t.Error("adapters differ between Workers=1 and Workers=2")
	}
	if rep.Speedup <= 0 {
		t.Errorf("speedup = %v, want the median of %d positive per-round ratios", rep.Speedup, speedPairs)
	}
	ex := rep.Exhaustive
	if ex == nil {
		t.Fatal("no exhaustive pass in report")
	}
	if ex.MultiCandidateFunctions == 0 {
		t.Error("exhaustive pass found no multi-candidate functions on fftw")
	}
	// FFTW's direction/flags knobs are invisible to the user program, so
	// its multi-candidate functions must share reference runs heavily.
	if ex.MultiCandidateHitRate <= 0.5 {
		t.Errorf("fftw multi-candidate oracle hit rate = %.2f, want > 0.5",
			ex.MultiCandidateHitRate)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back SynthBenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip through JSON: %v", err)
	}
	if back.Exhaustive.MultiCandidateHitRate != ex.MultiCandidateHitRate {
		t.Error("JSON round trip lost the multi-candidate hit rate")
	}
	rep.WriteText(&bytes.Buffer{})
}

// TestSynthBenchSearchSection: the report's search section comes from
// the sequential run and is internally consistent with it.
func TestSynthBenchSearchSection(t *testing.T) {
	rep, err := SynthBench(nil, []string{"fftw"}, 2, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Search
	if s == nil {
		t.Fatal("report has no search section")
	}
	if s.Dispatched == 0 || s.Generated < s.Dispatched {
		t.Errorf("search funnel inconsistent: generated %d, dispatched %d",
			s.Generated, s.Dispatched)
	}
	if s.Winners != int64(rep.Runs[0].Adapters) {
		t.Errorf("search winners = %d, run adapters = %d",
			s.Winners, rep.Runs[0].Adapters)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back SynthBenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Search == nil || back.Search.Dispatched != s.Dispatched {
		t.Error("JSON round trip lost the search section")
	}
}
