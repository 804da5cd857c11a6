package obs

import (
	"strings"
	"sync"
	"testing"
)

// sampleSearch is one search on ffta: 10 hypotheses, 4 rejected
// before fuzzing, 5 candidates dispatched, 4 of them killed and one
// surviving to win. Case 0 kills two distinct binding families, case 1
// one, and one death has no attributable case.
func sampleSearch() *Events {
	ev := NewEvents()
	for i := 0; i < 6; i++ {
		ev.Record(Event{Kind: KindEmitted, Function: "fft", Target: "ffta"})
	}
	for i := 0; i < 4; i++ {
		ev.Record(Event{Kind: KindPruned, Function: "fft", Target: "ffta", Heuristic: "range"})
	}
	kill := func(cand, family string, at int, sig, mismatch string) Event {
		return Event{Kind: KindFuzz, Function: "fft", Target: "ffta", Candidate: cand,
			Outcome: mismatch, Tests: at + 1, Mismatch: mismatch, Family: family, Seed: 42,
			Case: at, CaseSig: sig, Len: 64}
	}
	ev.Record(kill("c1", "famA", 0, "seed=42 n=64 case=0", "behavior-mismatch"))
	ev.Record(kill("c2", "famB", 0, "seed=42 n=64 case=0", "behavior-mismatch"))
	ev.Record(kill("c3", "famA", 1, "seed=42 n=64 case=1", "return-mismatch"))
	ev.Record(Event{Kind: KindFuzz, Function: "fft", Target: "ffta", Candidate: "c4",
		Outcome: "timeout", Family: "famC", Seed: 42, Case: -1})
	ev.Record(Event{Kind: KindFuzz, Function: "fft", Target: "ffta", Candidate: "c5",
		Outcome: OutcomeSurvived, Tests: 4, Family: "famA", Seed: 42})
	ev.Record(Event{Kind: KindAccepted, Function: "fft", Target: "ffta", Candidate: "c5"})
	return ev
}

func TestKillTableSummary(t *testing.T) {
	sum := FoldSearch(sampleSearch().Snapshot())
	if sum == nil {
		t.Fatal("nil summary for a populated stream")
	}
	if sum.Generated != 10 || sum.PreFiltered != 4 || sum.Dispatched != 5 {
		t.Errorf("funnel head = %d/%d/%d, want 10/4/5",
			sum.Generated, sum.PreFiltered, sum.Dispatched)
	}
	if sum.Killed != 4 || sum.Survived != 1 || sum.Winners != 1 {
		t.Errorf("funnel tail = %d/%d/%d, want 4/1/1",
			sum.Killed, sum.Survived, sum.Winners)
	}
	if sum.MultiFamilyCases != 1 {
		t.Errorf("MultiFamilyCases = %d, want 1 (case 0 killed famA and famB)",
			sum.MultiFamilyCases)
	}
	if len(sum.Cases) != 2 {
		t.Fatalf("%d ranked cases, want 2", len(sum.Cases))
	}
	// Case 0 (2 families) must outrank case 1 (1 family).
	if sum.Cases[0].Sig != "seed=42 n=64 case=0" || sum.Cases[0].Families != 2 {
		t.Errorf("top case = %q families=%d, want case=0 with 2 families",
			sum.Cases[0].Sig, sum.Cases[0].Families)
	}
	// Kill depth: bucket -1 (caseless), 0 (two kills), 1 (one kill).
	want := map[int]int64{-1: 1, 0: 2, 1: 1}
	if len(sum.KillDepth) != len(want) {
		t.Fatalf("%d depth buckets, want %d: %+v", len(sum.KillDepth), len(want), sum.KillDepth)
	}
	for _, b := range sum.KillDepth {
		if want[b.CaseIndex] != b.Kills {
			t.Errorf("depth[%d] = %d, want %d", b.CaseIndex, b.Kills, want[b.CaseIndex])
		}
	}
	if sum.Mismatch["behavior-mismatch"] != 2 || sum.Mismatch["timeout"] != 1 {
		t.Errorf("mismatch tally = %v", sum.Mismatch)
	}
	if len(sum.PerTarget) != 1 || sum.PerTarget[0].Target != "ffta" {
		t.Fatalf("per-target = %+v, want one ffta row", sum.PerTarget)
	}
}

// TestKillTableEmptySummaryNil: a stream with no candidate in it folds
// to no search summary, so JSON embeddings omit the section.
func TestKillTableEmptySummaryNil(t *testing.T) {
	if sum := FoldSearch(nil); sum != nil {
		t.Errorf("empty summary = %+v, want nil", sum)
	}
	ev := NewEvents()
	ev.Record(Event{Kind: KindCompile})
	ev.Record(Event{Kind: KindGate, Function: "dump", Heuristic: "printf"})
	if sum := FoldSearch(ev.Snapshot()); sum != nil {
		t.Errorf("candidate-free summary = %+v, want nil", sum)
	}
}

// TestKillTableScoped: a scoped view's events fold into exactly that
// trace's search.
func TestKillTableScoped(t *testing.T) {
	root := NewEvents()
	a := root.Scoped("trace-a")
	b := root.Scoped("trace-b")
	a.Record(Event{Kind: KindFuzz, Function: "fft", Target: "ffta", Candidate: "c1",
		Outcome: "behavior-mismatch", Tests: 1, Mismatch: "behavior-mismatch",
		Family: "famA", CaseSig: "seed=1 n=64 case=0"})
	a.Record(Event{Kind: KindFuzz, Function: "fft", Target: "ffta", Candidate: "c0",
		Outcome: OutcomeSurvived})
	b.Record(Event{Kind: KindFuzz, Function: "fft", Target: "ffta", Candidate: "c2",
		Outcome: "timeout", Family: "famB", Case: -1})

	sa := FoldSearch(a.Snapshot())
	if sa == nil || sa.Killed != 1 || sa.Dispatched != 2 {
		t.Errorf("trace-a summary = %+v, want killed=1 dispatched=2", sa)
	}
	sb := FoldSearch(b.Snapshot())
	if sb == nil || sb.Killed != 1 || sb.Dispatched != 1 {
		t.Errorf("trace-b summary = %+v, want killed=1 dispatched=1", sb)
	}
	if FoldSearch(root.Scoped("trace-c").Snapshot()) != nil {
		t.Error("unknown trace should summarize to nil")
	}
	// The unscoped view sees everything.
	if sum := FoldSearch(root.Snapshot()); sum == nil || sum.Killed != 2 {
		t.Errorf("global summary = %+v, want killed=2", sum)
	}
}

// TestNilKillTableZeroAllocs: recording a kill or any funnel step on a
// nil stream is a free no-op, and what it holds folds to no search.
func TestNilKillTableZeroAllocs(t *testing.T) {
	var ev *Events
	allocs := testing.AllocsPerRun(500, func() {
		ev.Record(Event{Kind: KindEmitted, Function: "fft", Target: "ffta"})
		ev.Record(Event{Kind: KindPruned, Function: "fft", Target: "ffta", Heuristic: "range"})
		ev.Record(Event{Kind: KindFuzz, Function: "fft", Target: "ffta", Candidate: "c1",
			Outcome: "behavior-mismatch", Tests: 1, Mismatch: "behavior-mismatch",
			Family: "famA", CaseSig: "seed=1 n=64 case=0"})
		ev.Record(Event{Kind: KindAccepted, Function: "fft", Target: "ffta", Candidate: "c0"})
		ev.Scoped("trace")
	})
	if allocs != 0 {
		t.Errorf("nil stream allocates %.0f per verdict, want 0", allocs)
	}
	if sum := FoldSearch(ev.Scoped("trace").Snapshot()); sum != nil {
		t.Errorf("nil stream summary = %+v, want nil", sum)
	}
}

func TestWriteSearchReport(t *testing.T) {
	var sb strings.Builder
	if err := sampleSearch().WriteSearchReport(&sb, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"search funnel: 10 generated, 4 pre-filtered, 5 dispatched, 4 killed, 1 survived, 1 winner(s)",
		"case 0: 2 kill(s)",
		"no single case (not-viable/timeout/panic): 1",
		"[ffta] seed=42 n=64 case=0 — 2 kill(s) across 2 binding family(ies)",
		"cases killing more than one binding family: 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := NewEvents().WriteSearchReport(&sb, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no events recorded") {
		t.Errorf("empty report = %q", sb.String())
	}
}

func TestKillTablePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := sampleSearch().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`facc_search_candidates_total{target="ffta",stage="generated"} 10`,
		`facc_search_candidates_total{target="ffta",stage="killed"} 4`,
		`facc_search_kills_total{mismatch="behavior-mismatch"} 2`,
		`facc_search_kill_depth_total{case="-1"} 1`,
		`facc_search_kill_depth_total{case="0"} 2`,
		`facc_search_multi_family_cases{target="ffta"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	var nev *Events
	sb.Reset()
	if err := nev.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil stream exposition = %q, %v; want empty, nil", sb.String(), err)
	}
}

// TestKillTableConcurrent exercises the shared stream from parallel
// goroutines the way concurrent compiles do (run under -race).
func TestKillTableConcurrent(t *testing.T) {
	root := NewEvents()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := root.Scoped("trace")
			for i := 0; i < 100; i++ {
				v.Record(Event{Kind: KindFuzz, Function: "fft", Target: "ffta",
					Candidate: "c", Outcome: "behavior-mismatch", Tests: 1,
					Mismatch: "behavior-mismatch", Family: "fam",
					CaseSig: "seed=1 n=64 case=0"})
			}
		}()
	}
	wg.Wait()
	sum := FoldSearch(root.Scoped("trace").Snapshot())
	if sum == nil || sum.Dispatched != 800 || sum.Killed != 800 {
		t.Errorf("summary = %+v, want dispatched 800 killed 800", sum)
	}
}

// TestValidTraceID pins the X-Facc-Trace admission rules: 1..64 bytes of
// [A-Za-z0-9._-]. Anything else — including the empty string — is
// replaced with a generated ID by the server.
func TestValidTraceID(t *testing.T) {
	valid := []string{"a", "deadbeefdeadbeefdeadbeefdeadbeef", "Trace-1.2_3",
		strings.Repeat("x", 64)}
	for _, s := range valid {
		if !ValidTraceID(s) {
			t.Errorf("ValidTraceID(%q) = false, want true", s)
		}
	}
	invalid := []string{"", strings.Repeat("x", 65), "has space", "semi;colon",
		"new\nline", "null\x00byte", "ünïcode", `quote"`, "{curly}"}
	for _, s := range invalid {
		if ValidTraceID(s) {
			t.Errorf("ValidTraceID(%q) = true, want false", s)
		}
	}
	// Every generated ID must be admissible.
	for i := 0; i < 20; i++ {
		if id := NewTraceID(); !ValidTraceID(id) {
			t.Fatalf("generated trace ID %q rejected by ValidTraceID", id)
		}
	}
}
