package server

// What a warm daemon keeps: a finished request releases its source,
// spans and events unless the flight recorder keeps its record, and the
// reads of the running totals answer as folds of the whole stream did.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"facc"
	"facc/internal/bench"
	"facc/internal/obs"
)

// corpusPairs is every (program, target) pair of the corpus, supported
// or not, as compile requests at the default test count.
func corpusPairs(t testing.TB) []facc.CompileRequest {
	t.Helper()
	var reqs []facc.CompileRequest
	for _, b := range bench.Suite() {
		for _, target := range facc.Targets() {
			reqs = append(reqs, corpusReq(t, b.Name, target, 0, 0))
		}
	}
	return reqs
}

// fresh returns the i-th request of the cycle through pairs under a
// tolerance salt no earlier request used, so its digest is new.
func fresh(pairs []facc.CompileRequest, i int) facc.CompileRequest {
	req := pairs[i%len(pairs)]
	req.Tolerance = 2e-3 * (1 + float64(i+1)*1e-9)
	return req
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServerRetainsNothingPerCompile runs the real pipeline through a
// daemon with every sink (Workers 1, one trace ID per request, a fresh
// digest each time) until its job history and flight recorder are full,
// then measures the heap that further compiles leave behind: it must
// stay under 1 KB per executed compile, where keeping every finished
// job's request and every span and event cost about 8 KB.
func TestServerRetainsNothingPerCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("real synthesis in -short mode")
	}
	_, ts, _, _ := newRealServer(t, 1)
	pairs := corpusPairs(t)
	i := 0
	compile := func(n int) {
		for end := i + n; i < end; i++ {
			if _, err := postWait(ts, fresh(pairs, i), fmt.Sprintf("keep-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	compile(historyCap + 2*len(pairs))
	before := heapAlloc()
	const measured = 6 * 75
	compile(measured)
	after := heapAlloc()
	runtime.KeepAlive(pairs) // live in both readings, so neither counts it
	perCompile := (float64(after) - float64(before)) / measured
	t.Logf("heap %d → %d bytes over %d compiles: %.0f bytes per compile", before, after, measured, perCompile)
	if perCompile >= 1024 {
		t.Errorf("the daemon retains %.0f bytes of heap per executed compile, want under 1 KB", perCompile)
	}
}

// TestServerTelemetryAnswersAsBefore: with every request under its own
// trace ID, what faccd still serves answers as keeping every record did.
// Each /debug/requests record shows the spans, events, costs and search
// summary its trace held when the request finished, which is what a join
// on read found when nothing was released; /status costs and search and
// the facc_ledger_* and facc_search_* families equal the folds of every
// event the daemon recorded; and /trace and /journal hold only the
// requests the flight recorder keeps.
func TestServerTelemetryAnswersAsBefore(t *testing.T) {
	if testing.Short() {
		t.Skip("real synthesis in -short mode")
	}
	tr, ev := obs.New(), obs.NewEvents()
	var mu sync.Mutex
	spans := map[string][]*obs.Span{}
	events := map[string][]obs.Event{}
	var all []obs.Event
	var s *Server
	s = New(Config{
		QueueDepth: 16, Workers: 1, Tracer: tr, Events: ev, FlightRecorder: 4,
		Options: facc.Options{Workers: 1},
		Compile: func(ctx context.Context, req facc.CompileRequest) (CompileResult, error) {
			res, err := s.faccCompile(ctx, req)
			// The request has recorded everything it will under its
			// trace, and the server has not closed the trace yet.
			trace := obs.TraceIDFrom(ctx)
			mu.Lock()
			spans[trace] = tr.TraceSpans(trace)
			events[trace] = ev.Scoped(trace).Snapshot()
			all = append(all, events[trace]...)
			mu.Unlock()
			return res, err
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(context.Background())
	})
	pairs := corpusPairs(t)
	for i := 0; i < 2*len(pairs); i++ {
		if _, err := postWait(ts, fresh(pairs, i), fmt.Sprintf("same-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	asJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	var dump debugRequests
	if err := json.Unmarshal(get("/debug/requests"), &dump); err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, rec := range append(dump.Slowest, dump.Failed...) {
		kept[rec.Trace] = true
		want := *rec
		want.Spans = spanRecords(spans[rec.Trace])
		want.Events = events[rec.Trace]
		want.Costs = nil
		if n, costs := obs.FoldCosts(want.Events); n > 0 {
			want.Costs = &costs
		}
		want.Search = obs.FoldSearch(want.Events)
		if len(want.Spans) == 0 || len(want.Events) == 0 {
			t.Fatalf("%s: the request recorded %d spans and %d events", rec.Trace,
				len(want.Spans), len(want.Events))
		}
		if got, want := asJSON(rec), asJSON(&want); got != want {
			t.Errorf("%s: flight record differs from the join on read:\n got  %s\n want %s",
				rec.Trace, got, want)
		}
	}
	if len(dump.Slowest) != 4 || len(dump.Failed) != 4 {
		t.Fatalf("flight recorder holds %d slowest and %d failed, want 4 and 4",
			len(dump.Slowest), len(dump.Failed))
	}

	var st struct {
		SpansCompleted int                `json:"spans_completed"`
		EventsRecorded int                `json:"journal_events"`
		Costs          *obs.CostSummary   `json:"costs"`
		Search         *obs.SearchSummary `json:"search"`
	}
	if err := json.Unmarshal(get("/status"), &st); err != nil {
		t.Fatal(err)
	}
	_, costs := obs.FoldCosts(all)
	if got, want := asJSON(st.Costs), asJSON(&costs); got != want {
		t.Errorf("/status costs differ from the fold of every event:\n got  %s\n want %s", got, want)
	}
	if got, want := asJSON(st.Search), asJSON(obs.FoldSearch(all)); got != want {
		t.Errorf("/status search differs from the fold of every event:\n got  %s\n want %s", got, want)
	}
	total := 0
	for _, sp := range spans {
		total += len(sp)
	}
	if st.EventsRecorded != len(all) || st.SpansCompleted != total {
		t.Errorf("/status counts %d events and %d spans, want %d and %d",
			st.EventsRecorded, st.SpansCompleted, len(all), total)
	}

	ref := obs.NewEvents()
	for _, e := range all {
		ref.Record(e)
	}
	var want strings.Builder
	if err := ref.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	metrics := string(get("/metrics"))
	at := strings.Index(metrics, "# TYPE facc_ledger_tests_total")
	if at < 0 || metrics[at:] != want.String() {
		t.Errorf("/metrics ledger and search families differ from the fold of every event:\n got  %s\n want %s",
			metrics[max(at, 0):], want.String())
	}

	window := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(get("/journal"))), "\n") {
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		window[e.Trace] = true
	}
	for _, sp := range tr.Spans() {
		window[sp.Trace] = true
	}
	if len(window) == 0 || len(window) > len(kept) {
		t.Errorf("/journal and /trace hold %d traces, want 1..%d", len(window), len(kept))
	}
	for trace := range window {
		if !kept[trace] {
			t.Errorf("/journal or /trace holds trace %q, which no flight record keeps", trace)
		}
	}
}

// TestServerRetiredJobKeepsTarget: a finished job keeps its result and,
// of its request, only the target, which is all /jobs/{id} and the
// flight recorder read.
func TestServerRetiredJobKeepsTarget(t *testing.T) {
	s := New(Config{Workers: 1, Compile: func(context.Context, facc.CompileRequest) (CompileResult, error) {
		return CompileResult{AdapterC: "/* ok */", Function: "fft"}, nil
	}})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := facc.CompileRequest{Name: "t.c", Source: "void fft() {}", Target: "fftw",
		Entry: "fft", ProfileValues: map[string][]int64{"n": {64}}, NumTests: 3}
	v := decodeJob(t, post(t, ts, req, "?wait=1"))
	s.mu.Lock()
	job := s.jobs[v.ID]
	s.mu.Unlock()
	if job == nil || !reflect.DeepEqual(job.Req, facc.CompileRequest{Target: "fftw"}) {
		t.Fatalf("retired job keeps request %+v, want only its target", job)
	}
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeJob(t, resp)
	if got.State != string(Done) || got.Target != "fftw" || got.AdapterC != "/* ok */" {
		t.Errorf("/jobs/%s = %+v", v.ID, got)
	}
}
