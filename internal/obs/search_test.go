package obs

import (
	"strings"
	"sync"
	"testing"
)

func sampleKills() *KillTable {
	k := NewKillTable()
	k.AddGenerated("fft", "ffta", 10)
	k.AddPreFiltered("fft", "ffta", 4)
	k.AddDispatched("fft", "ffta", 5)
	k.AddSurvived("fft", "ffta", 1)
	k.AddWinner("fft", "ffta", 1)
	// Case 0 kills two distinct binding families; case 1 kills one.
	k.Record(KillEvent{Function: "fft", Target: "ffta", Candidate: "c1",
		Family: "famA", Seed: 42, CaseIndex: 0, CaseSig: "seed=42 n=64 case=0",
		Len: 64, Steps: 100, Mismatch: "behavior-mismatch"})
	k.Record(KillEvent{Function: "fft", Target: "ffta", Candidate: "c2",
		Family: "famB", Seed: 42, CaseIndex: 0, CaseSig: "seed=42 n=64 case=0",
		Len: 64, Steps: 120, Mismatch: "behavior-mismatch"})
	k.Record(KillEvent{Function: "fft", Target: "ffta", Candidate: "c3",
		Family: "famA", Seed: 42, CaseIndex: 1, CaseSig: "seed=42 n=64 case=1",
		Len: 64, Steps: 250, Mismatch: "return-mismatch"})
	// A caseless death: no attributable IO case.
	k.Record(KillEvent{Function: "fft", Target: "ffta", Candidate: "c4",
		Family: "famC", Seed: 42, CaseIndex: -1, Mismatch: "timeout"})
	return k
}

func TestKillTableSummary(t *testing.T) {
	sum := sampleKills().Summary()
	if sum == nil {
		t.Fatal("nil summary for populated table")
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

func TestKillTableEmptySummaryNil(t *testing.T) {
	if sum := NewKillTable().Summary(); sum != nil {
		t.Errorf("empty table summary = %+v, want nil", sum)
	}
	var k *KillTable
	if sum := k.Summary(); sum != nil {
		t.Errorf("nil table summary = %+v, want nil", sum)
	}
}

// TestKillTableScoped: a scoped view stamps its trace onto events and
// funnels, and TraceSummary/TraceEvents carve out exactly that trace.
func TestKillTableScoped(t *testing.T) {
	k := NewKillTable()
	a := k.Scoped("trace-a")
	b := k.Scoped("trace-b")
	a.AddDispatched("fft", "ffta", 2)
	a.Record(KillEvent{Function: "fft", Target: "ffta", Candidate: "c1",
		Family: "famA", CaseIndex: 0, CaseSig: "seed=1 n=64 case=0",
		Mismatch: "behavior-mismatch"})
	b.Record(KillEvent{Function: "fft", Target: "ffta", Candidate: "c2",
		Family: "famB", CaseIndex: -1, Mismatch: "timeout"})

	if got := len(k.TraceEvents("trace-a")); got != 1 {
		t.Errorf("trace-a events = %d, want 1", got)
	}
	sa := k.TraceSummary("trace-a")
	if sa == nil || sa.Killed != 1 || sa.Dispatched != 2 {
		t.Errorf("trace-a summary = %+v, want killed=1 dispatched=2", sa)
	}
	sb := k.TraceSummary("trace-b")
	if sb == nil || sb.Killed != 1 || sb.Dispatched != 0 {
		t.Errorf("trace-b summary = %+v, want killed=1 dispatched=0", sb)
	}
	if k.TraceSummary("trace-c") != nil {
		t.Error("unknown trace should summarize to nil")
	}
	// The shared view sees everything.
	if sum := k.Summary(); sum == nil || sum.Killed != 2 {
		t.Errorf("global summary = %+v, want killed=2", sum)
	}
}

// TestNilKillTableZeroAllocs: the disabled-observability contract — every
// method the verdict path can reach must be a free no-op on nil.
func TestNilKillTableZeroAllocs(t *testing.T) {
	var k *KillTable
	allocs := testing.AllocsPerRun(500, func() {
		if k != nil {
			t.Fatal("unreachable")
		}
		k.Record(KillEvent{Function: "fft", Target: "ffta"})
		k.AddGenerated("fft", "ffta", 1)
		k.AddPreFiltered("fft", "ffta", 1)
		k.AddDispatched("fft", "ffta", 1)
		k.AddSurvived("fft", "ffta", 1)
		k.AddWinner("fft", "ffta", 1)
		k.Scoped("trace")
	})
	if allocs != 0 {
		t.Errorf("nil kill table allocates %.0f per verdict, want 0", allocs)
	}
}

func TestWriteSearchReport(t *testing.T) {
	var sb strings.Builder
	if err := sampleKills().WriteSearchReport(&sb, 10); err != nil {
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
	if err := NewKillTable().WriteSearchReport(&sb, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no events recorded") {
		t.Errorf("empty report = %q", sb.String())
	}
}

func TestKillTablePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := sampleKills().WritePrometheus(&sb); err != nil {
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
	var nk *KillTable
	sb.Reset()
	if err := nk.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil table exposition = %q, %v; want empty, nil", sb.String(), err)
	}
}

// TestKillTableConcurrent exercises the shared state from parallel
// goroutines the way worker-pool synthesis does (run under -race).
func TestKillTableConcurrent(t *testing.T) {
	k := NewKillTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := k.Scoped("trace")
			for i := 0; i < 100; i++ {
				v.AddDispatched("fft", "ffta", 1)
				v.Record(KillEvent{Function: "fft", Target: "ffta",
					Candidate: "c", Family: "fam", CaseIndex: 0,
					CaseSig: "seed=1 n=64 case=0", Mismatch: "behavior-mismatch"})
			}
		}()
	}
	wg.Wait()
	if k.Len() != 800 {
		t.Errorf("events = %d, want 800", k.Len())
	}
	sum := k.Summary()
	if sum.Dispatched != 800 || sum.Killed != 800 {
		t.Errorf("summary = dispatched %d killed %d, want 800/800",
			sum.Dispatched, sum.Killed)
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
