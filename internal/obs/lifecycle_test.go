package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// folds is the JSON of a cost ledger and search summary, for comparing
// two folds whole.
func folds(n int, costs CostSummary, search *SearchSummary) string {
	b, err := json.Marshal(struct {
		N      int
		Costs  CostSummary
		Search *SearchSummary
	}{n, costs, search})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// foldAll is the cost ledger and search summary of evs in one fold.
func foldAll(evs []Event) string {
	n, costs := FoldCosts(evs)
	return folds(n, costs, FoldSearch(evs))
}

// request records one compile's worth of events under trace: a pruned
// and an emitted binding, a kill, a survivor and its acceptance.
func request(ev *Events, trace, target string, i int) {
	sev := ev.Scoped(trace)
	sev.Record(Event{Kind: KindPruned, Function: "fft", Target: target, Heuristic: "range"})
	sev.Record(Event{Kind: KindEmitted, Function: "fft", Target: target})
	sev.Record(Event{Kind: KindFuzz, Function: "fft", Target: target, Candidate: "c0",
		Outcome: "behavior-mismatch", Mismatch: "behavior-mismatch", Tests: 1, Case: 0,
		CaseSig: fmt.Sprintf("n=%d case=0", 16<<(i%3)), Family: fmt.Sprintf("fam%d", i%2),
		Started: 2, Steps: int64(10 + i), OracleMisses: 2})
	sev.Record(fuzz(target, "c1", OutcomeSurvived, 3, int64(20+i), 2, 1))
	sev.Record(accepted(target, "c1"))
}

// TestTracerHoldRelease: a held trace keeps its spans until its last
// hold is released, a trace nobody held keeps them for good, and the
// ended count and the End order cover every trace.
func TestTracerHoldRelease(t *testing.T) {
	tr := New()
	tr.Hold("a")
	tr.Hold("a")
	tr.Span("compile").SetTrace("a").End()
	tr.Span("compile").SetTrace("b").End()
	root := tr.Span("compile").SetTrace("a")
	root.Child("fuzz").End()
	root.End()
	tr.Span("frontend").End()

	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("held %d spans, want 5", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i-1].seq >= spans[i].seq {
			t.Fatalf("spans out of End order: %d then %d", spans[i-1].seq, spans[i].seq)
		}
	}
	if got := tr.TraceSpans("a"); len(got) != 3 || got[1].Name != "fuzz" {
		t.Fatalf("trace a holds %d spans, want compile, fuzz, compile", len(got))
	}
	tr.Release("a")
	if got := tr.TraceSpans("a"); len(got) != 3 {
		t.Errorf("one of two holds released, %d spans left, want 3", len(got))
	}
	tr.Release("a")
	if got := tr.TraceSpans("a"); got != nil {
		t.Errorf("released trace still holds %d spans", len(got))
	}
	tr.Release("b")
	if got := len(tr.TraceSpans("b")); got != 1 {
		t.Errorf("a trace nobody held lost its span to a stray release (%d left)", got)
	}
	if got := len(tr.Spans()); got != 2 {
		t.Errorf("%d spans held after the releases, want 2", got)
	}
	if got := tr.NumSpans(); got != 5 {
		t.Errorf("NumSpans = %d, want 5 (released spans count)", got)
	}
	var nilTr *Tracer
	nilTr.Hold("a")
	nilTr.Release("a")
}

// TestEventsCloseFoldsOnce: closing a trace folds its events into the
// running totals once, releasing it drops them, and Totals over closed,
// released and open traces equals one fold of every event recorded.
func TestEventsCloseFoldsOnce(t *testing.T) {
	ev := NewEvents()
	for i, trace := range []string{"t0", "t1", "t2", "t3"} {
		ev.Hold(trace)
		request(ev, trace, []string{"ffta", "fftw"}[i%2], i)
	}
	ev.Record(Event{Kind: KindCompile, Detail: "untraced"})
	want := foldAll(ev.Snapshot())
	recorded := ev.Recorded()

	ev.Close("t0")
	ev.Close("t0") // folds nothing twice
	ev.Close("t1")
	ev.Release("t1")
	ev.Release("t2") // never closed: released events still count
	if got := folds(ev.Totals()); got != want {
		t.Errorf("totals after closes and releases:\n got  %s\n want %s", got, want)
	}
	if got := ev.Scoped("t1").Snapshot(); got != nil {
		t.Errorf("released trace t1 still holds %d events", len(got))
	}
	if got := len(ev.Scoped("t0").Snapshot()); got != 5 {
		t.Errorf("closed, still held trace t0 holds %d events, want 5", got)
	}
	if got := len(ev.Snapshot()); got != 11 {
		t.Errorf("the stream holds %d events, want 11 (t0, t3 and the untraced one)", got)
	}
	if got := ev.Recorded(); got != recorded || got != 21 {
		t.Errorf("Recorded = %d, want %d", got, recorded)
	}
	ev.Release("t0")
	ev.Release("t3")
	if got := folds(ev.Totals()); got != want {
		t.Errorf("totals after every release:\n got  %s\n want %s", got, want)
	}
	var nilEv *Events
	nilEv.Hold("a")
	nilEv.Close("a")
	nilEv.Release("a")
	if n, _, search := nilEv.Totals(); n != 0 || search != nil {
		t.Errorf("nil stream totals: %d accounts, search %+v", n, search)
	}
}

// TestEventsReusedTraceFoldsPerRequest pins how a trace ID reused by two
// requests that do not overlap is folded: each request's candidates are
// accounts of their own, where one fold of the whole stream merges the
// accounts they share; the work and the search summary agree.
func TestEventsReusedTraceFoldsPerRequest(t *testing.T) {
	ev := NewEvents()
	for i := 0; i < 2; i++ {
		ev.Hold("build-42")
		request(ev, "build-42", "ffta", i)
		ev.Close("build-42")
		ev.Release("build-42")
	}
	all := NewEvents()
	request(all, "build-42", "ffta", 0)
	request(all, "build-42", "ffta", 1)
	evs := all.Snapshot()

	n, costs, search := ev.Totals()
	wn, wcosts := FoldCosts(evs)
	if n != 4 || wn != 2 {
		t.Errorf("accounts: %d folded per request, %d in one fold; want 4 and 2", n, wn)
	}
	got, want := costs.Total, wcosts.Total
	if got.UsefulTests+got.SpeculativeTests != want.UsefulTests+want.SpeculativeTests ||
		got.UsefulSteps+got.SpeculativeSteps != want.UsefulSteps+want.SpeculativeSteps ||
		got.OracleHits != want.OracleHits || got.OracleMisses != want.OracleMisses {
		t.Errorf("work differs: per request %+v, one fold %+v", got, want)
	}
	if a, b := folds(0, CostSummary{}, search), folds(0, CostSummary{}, FoldSearch(evs)); a != b {
		t.Errorf("search summary differs:\n per request %s\n one fold    %s", a, b)
	}
}

// TestEventsLifecycleConcurrent holds, records, closes and releases
// traces from several goroutines while others read the totals, the
// snapshots and the spans: under -race this is the data-race proof of
// the faccd path, and afterwards nothing is held and the totals equal
// one fold of everything recorded.
func TestEventsLifecycleConcurrent(t *testing.T) {
	tr, ev := New(), NewEvents()
	const workers, requests = 6, 40
	var mu sync.Mutex
	var all []Event
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ev.Totals()
				ev.Snapshot()
				tr.Spans()
				ev.Scoped("w0-r0").Snapshot()
				tr.TraceSpans("w1-r1")
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				trace := fmt.Sprintf("w%d-r%d", w, i)
				tr.Hold(trace)
				ev.Hold(trace)
				sp := tr.Span("compile").SetTrace(trace)
				request(ev, trace, []string{"ffta", "fftw", "powerquad"}[(w+i)%3], i)
				sp.Child("fuzz").End()
				sp.End()
				mine := ev.Scoped(trace).Snapshot()
				ev.Close(trace)
				tr.Release(trace)
				ev.Release(trace)
				mu.Lock()
				all = append(all, mine...)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got, want := folds(ev.Totals()), foldAll(all); got != want {
		t.Errorf("totals differ from one fold of every event:\n got  %s\n want %s", got, want)
	}
	if n := len(ev.Snapshot()); n != 0 {
		t.Errorf("%d events held after every trace was released", n)
	}
	if n := len(tr.Spans()); n != 0 {
		t.Errorf("%d spans held after every trace was released", n)
	}
	if got := ev.Recorded(); got != int64(len(all)) || got != workers*requests*5 {
		t.Errorf("Recorded = %d, want %d", got, workers*requests*5)
	}
	if got := tr.NumSpans(); got != workers*requests*2 {
		t.Errorf("NumSpans = %d, want %d", got, workers*requests*2)
	}
}
