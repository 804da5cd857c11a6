package eval

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeArtifact(t *testing.T, dir, name string, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchGate(t *testing.T) {
	dir := t.TempDir()
	base := &SynthBenchReport{Runs: []SynthBenchRun{
		{Workers: 1, WallSeconds: 10, WasteRatio: 0},
		{Workers: 4, WallSeconds: 4, WasteRatio: 0.40},
	}}
	baseServe := &ServeBenchReport{WallSeconds: 5, LatencyMsP99: 200}
	basePath := writeArtifact(t, dir, "base_synth.json", base)
	baseServePath := writeArtifact(t, dir, "base_serve.json", baseServe)

	// Within tolerance: slightly slower, slightly wastier — passes.
	okFresh := &SynthBenchReport{Runs: []SynthBenchRun{
		{Workers: 1, WallSeconds: 11, WasteRatio: 0.05},
		{Workers: 4, WallSeconds: 4.5, WasteRatio: 0.45},
	}}
	okServe := &ServeBenchReport{WallSeconds: 5.5, LatencyMsP99: 220}
	rep, err := BenchGate(GateConfig{
		BaselineSynth: basePath,
		FreshSynth:    writeArtifact(t, dir, "ok_synth.json", okFresh),
		BaselineServe: baseServePath,
		FreshServe:    writeArtifact(t, dir, "ok_serve.json", okServe),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("within-tolerance run failed the gate: %+v", rep.Checks)
	}
	if len(rep.Checks) != 6 {
		t.Errorf("checks = %d, want 6 (2 runs x 2 metrics + 2 serve)", len(rep.Checks))
	}

	// A 2x wall-time regression fails, and the report names the check.
	badFresh := &SynthBenchReport{Runs: []SynthBenchRun{
		{Workers: 1, WallSeconds: 20, WasteRatio: 0},
		{Workers: 4, WallSeconds: 4, WasteRatio: 0.40},
	}}
	rep, err = BenchGate(GateConfig{
		BaselineSynth: basePath,
		FreshSynth:    writeArtifact(t, dir, "bad_synth.json", badFresh),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Failures != 1 {
		t.Fatalf("2x regression passed the gate: %+v", rep.Checks)
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "FAIL synth.wall_seconds[workers=1]") {
		t.Errorf("report does not name the regressed check:\n%s", sb.String())
	}

	// A fresh run with different worker counts (different machine) only
	// compares the counts both artifacts share.
	otherShape := &SynthBenchReport{Runs: []SynthBenchRun{
		{Workers: 1, WallSeconds: 10, WasteRatio: 0},
		{Workers: 16, WallSeconds: 2, WasteRatio: 0.6},
	}}
	rep, err = BenchGate(GateConfig{
		BaselineSynth: basePath,
		FreshSynth:    writeArtifact(t, dir, "shape_synth.json", otherShape),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Checks) != 2 {
		t.Fatalf("machine-shape mismatch handled wrong: %+v", rep.Checks)
	}

	// Nothing to compare is an error, not a silent pass.
	if _, err := BenchGate(GateConfig{}); err == nil {
		t.Error("empty gate config did not error")
	}
}

// TestMergedServeRunsGateEveryRun: the serving artifact folds three runs.
// One run that breaks a verdict fails the gate although the other two
// are clean, and one slow run does not: the timing checks read the
// median run.
func TestMergedServeRunsGateEveryRun(t *testing.T) {
	dir := t.TempDir()
	run := func(p99 float64) *ServeBenchReport {
		return &ServeBenchReport{WallSeconds: 1, LatencyMsP99: p99, Completed: 48,
			AdaptersConsistent: true,
			Fleet: &FleetBenchReport{Requests: 36, Completed: 36, WallSeconds: 1,
				LatencyMsP99: p99, RebalanceMs: 1, RebalanceBudgetMs: 160,
				Failovers: 5, AdaptersConsistent: true}}
	}
	basePath := writeArtifact(t, dir, "base_serve.json", run(20))
	gate := func(name string, runs ...*ServeBenchReport) *GateReport {
		t.Helper()
		rep, err := BenchGate(GateConfig{BaselineServe: basePath,
			FreshServe: writeArtifact(t, dir, name+".json", MergeServeRuns(runs))})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	if rep := gate("slow-run", run(20), run(90), run(21)); !rep.OK() {
		t.Fatalf("one slow run of three failed the gate: %+v", rep.Checks)
	}
	if rep := gate("slow-median", run(30), run(90), run(21)); rep.OK() {
		t.Fatalf("a median p99 of 30 ms against 20 passed the gate: %+v", rep.Checks)
	}

	for _, bad := range []struct {
		check string
		spoil func(*ServeBenchReport)
	}{
		{"serve.fleet.acked_dropped", func(r *ServeBenchReport) { r.Fleet.AckedDropped = 1 }},
		{"serve.fleet.adapters_consistent", func(r *ServeBenchReport) { r.Fleet.AdaptersConsistent = false }},
		{"serve.fleet.completed_frac", func(r *ServeBenchReport) { r.Fleet.Completed = 35 }},
		{"serve.fleet.rebalance_ms", func(r *ServeBenchReport) { r.Fleet.RebalanceMs = 400 }},
		{"serve.fleet.failovers", func(r *ServeBenchReport) { r.Fleet.Failovers = 0 }},
	} {
		// The spoilt run is the fastest, so the merged record's other
		// fields come from a clean run and only the fold can carry the
		// bad verdict.
		spoilt := run(20)
		spoilt.WallSeconds = 0.5
		bad.spoil(spoilt)
		rep := gate(bad.check, run(20), spoilt, run(20))
		failed := false
		for _, c := range rep.Checks {
			failed = failed || (c.Name == bad.check && !c.OK)
		}
		if !failed {
			t.Errorf("one bad run of three did not fail %s: %+v", bad.check, rep.Checks)
		}
	}

	bad := run(20)
	bad.WallSeconds = 0.5
	bad.AdaptersConsistent, bad.Failed = false, 2
	if m := MergeServeRuns([]*ServeBenchReport{run(20), bad, run(20)}); m.AdaptersConsistent || m.Failed != 2 {
		t.Errorf("merged serve verdicts = consistent %v, failed %d; want false, 2",
			m.AdaptersConsistent, m.Failed)
	}
}
