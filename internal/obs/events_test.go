package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestJournalRecordAndJSONL(t *testing.T) {
	ev := NewEvents()
	ev.Record(Event{Kind: KindCompile, Target: "ffta", Detail: "fft.c → ffta"})
	ev.Record(Event{Kind: KindEmitted, Function: "fft", Target: "ffta",
		Candidate: "in=struct(x,re=0,im=1)"})
	ev.Record(Event{Kind: KindFuzz, Function: "fft", Target: "ffta",
		Candidate: "in=struct(x,re=0,im=1)", Outcome: "survived", Tests: 10,
		Family: "fam", Seed: 42, Started: 10, Steps: 900, OracleHits: 4, OracleMisses: 6})

	evs := ev.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != int64(i)+1 {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}

	var buf bytes.Buffer
	if err := ev.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec Event
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, rec)
	}
	if len(got) != 3 {
		t.Fatalf("JSONL lines = %d, want 3", len(got))
	}
	// The JSONL round-trips every field, the work and kill attribution
	// of fuzz events included.
	for i := range got {
		if got[i] != evs[i] {
			t.Errorf("line %d = %+v, want %+v", i, got[i], evs[i])
		}
	}
}

// TestJournalScoped: a scoped view stamps what it records with its trace
// ID and reads back only that trace's events, while the unscoped view
// over the same stream reads everything — the mechanism that lets one
// process-wide stream serve concurrent faccd requests.
func TestJournalScoped(t *testing.T) {
	root := NewEvents()
	a, b := root.Scoped("trace-a"), root.Scoped("trace-b")
	a.Record(Event{Kind: KindFunction, Function: "fft"})
	b.Record(Event{Kind: KindFunction, Function: "dft"})
	a.Record(Event{Kind: KindFuzz, Function: "fft", Outcome: "survived"})
	root.Record(Event{Kind: KindCompile})

	if got := root.Snapshot(); len(got) != 4 {
		t.Fatalf("root view reads %d events, want 4", len(got))
	}
	sa := a.Snapshot()
	if len(sa) != 2 || sa[0].Trace != "trace-a" || sa[1].Seq != 3 {
		t.Errorf("trace-a view = %+v", sa)
	}
	if got := root.Scoped("trace-c").Snapshot(); got != nil {
		t.Errorf("unknown trace reads %+v", got)
	}
	if root.Scoped("") != root {
		t.Error(`Scoped("") should return the receiver`)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var ev *Events
	ev.Record(Event{Kind: KindFuzz}) // must not panic
	if ev.Snapshot() != nil || ev.Scoped("id") != nil {
		t.Error("nil stream not empty")
	}
	if err := ev.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
	if err := ev.WriteReport(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteReport: %v", err)
	}
	var buf bytes.Buffer
	if err := ev.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WritePrometheus: err=%v out=%q", err, buf.String())
	}
}

func TestJournalConcurrentRecord(t *testing.T) {
	ev := NewEvents()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ev.Record(Event{Kind: KindPruned, Heuristic: "range"})
			}
		}()
	}
	wg.Wait()
	evs := ev.Snapshot()
	if len(evs) != 4000 {
		t.Errorf("len = %d, want 4000", len(evs))
	}
	seen := map[int64]bool{}
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestJournalReport(t *testing.T) {
	ev := NewEvents()
	ev.Record(Event{Kind: KindCompile, Detail: "fft.c → ffta"})
	ev.Record(Event{Kind: KindFunction, Function: "fft", Detail: "ffta"})
	ev.Record(Event{Kind: KindPruned, Function: "fft",
		Heuristic: "range", Detail: "len=n(m) outside domain"})
	ev.Record(Event{Kind: KindPruned, Function: "fft", Heuristic: "range"})
	ev.Record(Event{Kind: KindPruned, Function: "fft", Heuristic: "dedup"})
	ev.Record(Event{Kind: KindEmitted, Function: "fft", Candidate: "in=c99(x) len=n(n)"})
	ev.Record(Event{Kind: KindFuzz, Function: "fft",
		Candidate: "in=c99(x) len=n(n)", Outcome: "behavior-mismatch", Tests: 2,
		Counterexample: "n=8 input[8]=(1+0i)"})
	ev.Record(Event{Kind: KindEmitted, Function: "fft", Candidate: "in=c99(x) len=1<<n"})
	ev.Record(Event{Kind: KindFuzz, Function: "fft",
		Candidate: "in=c99(x) len=1<<n", Outcome: "survived", Tests: 10})
	ev.Record(Event{Kind: KindAccepted, Function: "fft",
		Candidate: "in=c99(x) len=1<<n", Tests: 10, Detail: "post=identity"})
	ev.Record(Event{Kind: KindResult, Function: "fft", Outcome: "replaced"})
	ev.Record(Event{Kind: KindFunction, Function: "dump", Detail: "ffta"})
	ev.Record(Event{Kind: KindGate, Function: "dump", Heuristic: "printf"})
	ev.Record(Event{Kind: KindResult, Function: "dump",
		Outcome: "rejected", Heuristic: "printf"})
	// A candidate cut off by a compile cancellation has no verdict.
	ev.Record(Event{Kind: KindFuzz, Function: "late", Candidate: "in=c99(y)", Started: 2})

	var buf bytes.Buffer
	if err := ev.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"provenance: fft.c → ffta",
		"function fft — REPLACED",
		"bindings: 2 emitted, 3 pruned (dedup ×1, range ×2)",
		"candidate 1: in=c99(x) len=n(n)",
		"fuzz: behavior-mismatch after 2 test(s)",
		"counterexample: n=8 input[8]=(1+0i)",
		"candidate 2: in=c99(x) len=1<<n",
		"fuzz: survived after 10 test(s)",
		"accepted: post=identity",
		"function dump — REJECTED (printf)",
		"gate: rejected — printf",
		"function late — ATTEMPTED",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "in=c99(y)") {
		t.Errorf("report lists a candidate with no verdict:\n%s", out)
	}
	if strings.Contains(out, "at_us") || strings.Contains(out, "µs") {
		t.Error("report leaks timestamps; it must be deterministic")
	}
}
