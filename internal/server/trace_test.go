package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"facc"
	"facc/internal/bench"
	"facc/internal/obs"
	"facc/internal/store"
)

// postTraced POSTs a compile request with an X-Facc-Trace header.
func postTraced(t *testing.T, ts *httptest.Server, req facc.CompileRequest, query, trace string) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/compile"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if trace != "" {
		hreq.Header.Set("X-Facc-Trace", trace)
	}
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// debugRequests is the wire form of /debug/requests.
type debugRequests struct {
	SLOLatencyMS float64          `json:"slo_latency_ms"`
	SLOObjective float64          `json:"slo_objective"`
	Slowest      []*RequestRecord `json:"slowest"`
	Failed       []*RequestRecord `json:"failed"`
}

// TestServerTraceJoinEndToEnd is the tentpole acceptance test: one trace
// ID, supplied by the client, must be joinable across the response
// header, the job JSON, the span export, the event JSONL, the cost
// ledger, the /metrics exemplars, and the /debug/requests flight record —
// through a real compile of a corpus program.
func TestServerTraceJoinEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real synthesis in -short mode")
	}
	bm, err := bench.ByName("iterdit")
	if err != nil {
		t.Fatal(err)
	}
	req := facc.CompileRequest{
		Name:          bm.File,
		Source:        bm.Source(),
		Target:        "ffta",
		Entry:         bm.Entry,
		ProfileValues: bm.ProfileValues,
		NumTests:      3,
	}
	tr := obs.New()
	ev := obs.NewEvents()
	st, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Config{
		QueueDepth: 4, Workers: 1,
		Tracer: tr, Events: ev, Store: st,
	})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const trace = "deadbeefdeadbeefdeadbeefdeadbeef"
	resp := postTraced(t, ts, req, "?wait=1", trace)
	if got := resp.Header.Get("X-Facc-Trace"); got != trace {
		t.Fatalf("response X-Facc-Trace = %q, want %q", got, trace)
	}
	v := decodeJob(t, resp)
	if v.State != string(Done) {
		t.Fatalf("compile: %+v", v)
	}
	if v.Trace != trace {
		t.Fatalf("job trace = %q, want %q", v.Trace, trace)
	}

	// The span tree carries the trace: the compile root span and its
	// children are retrievable by ID and exported with it.
	spans := tr.TraceSpans(trace)
	if len(spans) == 0 {
		t.Fatal("no spans joined to the trace")
	}
	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), trace) {
		t.Error("Chrome trace export lost the trace ID")
	}

	// The candidate events are stamped, and the JSONL export carries the
	// stamp — the grep target serve_smoke.sh asserts.
	evs := ev.Scoped(trace).Snapshot()
	if len(evs) == 0 {
		t.Fatal("no events joined to the trace")
	}
	var jsonl bytes.Buffer
	if err := ev.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"trace":"`+trace+`"`) {
		t.Error("event JSONL export lost the trace ID")
	}

	// The cost ledger charged this request's synthesis work to the trace,
	// and the deterministic search produced exactly one winner account.
	n, costs := obs.FoldCosts(evs)
	if n == 0 {
		t.Fatal("no cost accounts joined to the trace")
	}
	if w := costs.Total.Verdicts[obs.VerdictWinner]; w != 1 {
		t.Errorf("%d winner accounts on the trace, want 1: %+v", w, costs.Total)
	}

	// The persisted adapter is stamped with the trace that compiled it.
	if ent, ok := st.Get(req.Digest()); !ok {
		t.Error("adapter not persisted to the store")
	} else if ent.Trace != trace {
		t.Errorf("store entry trace = %q, want %q", ent.Trace, trace)
	}

	// /metrics: the latency histogram's exemplar names the trace.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(prom), "trace_id="+trace) {
		t.Error("/metrics has no exemplar naming the trace")
	}
	if !strings.Contains(string(prom), "facc_ledger_tests_total") {
		t.Error("/metrics missing the ledger exposition")
	}
	if !strings.Contains(string(prom), "facc_search_candidates_total") {
		t.Error("/metrics missing the search funnel exposition")
	}

	// /debug/requests: the flight record joins everything.
	dresp, err := ts.Client().Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var dump debugRequests
	if err := json.NewDecoder(dresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	var rec *RequestRecord
	for _, r := range dump.Slowest {
		if r.Trace == trace {
			rec = r
		}
	}
	if rec == nil {
		t.Fatalf("trace not in /debug/requests slowest list (%d records)", len(dump.Slowest))
	}
	if len(rec.Spans) == 0 || len(rec.Events) != len(evs) || rec.Costs == nil {
		t.Errorf("flight record incomplete: %d spans, %d of %d events, costs %+v",
			len(rec.Spans), len(rec.Events), len(evs), rec.Costs)
	}
	if rec.Search == nil || rec.Search.Dispatched == 0 || rec.Search.Winners != 1 {
		t.Errorf("flight record search funnel = %+v, want dispatched > 0 with 1 winner",
			rec.Search)
	}
	if rec.Costs != nil && rec.Costs.Total.Verdicts[obs.VerdictWinner] != 1 {
		t.Errorf("flight record cost fold = %+v, want 1 winner", rec.Costs.Total)
	}
	for _, e := range rec.Events {
		if e.Trace != trace {
			t.Errorf("flight record event on foreign trace: %+v", e)
		}
	}

	// /status: the per-target oracle stats and cost summary surface.
	sresp, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	status, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if !strings.Contains(string(status), `"costs"`) {
		t.Error("/status missing the cost summary")
	}
	if !strings.Contains(string(status), `"search"`) {
		t.Error("/status missing the search block")
	}

	// A request without the header gets a generated, well-formed ID.
	resp2 := postTraced(t, ts, facc.CompileRequest{
		Name: "gen.c", Source: bm.Source(), Target: "powerquad",
		Entry: bm.Entry, ProfileValues: bm.ProfileValues, NumTests: 3,
	}, "?wait=1", "")
	gen := resp2.Header.Get("X-Facc-Trace")
	resp2.Body.Close()
	if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(gen) {
		t.Errorf("generated trace ID %q is not 32 hex chars", gen)
	}
}

// TestServerTraceHeaderValidation: a hostile X-Facc-Trace — over-long,
// wrong charset, or carrying header/JSON metacharacters — is replaced
// with a generated ID instead of being propagated into exemplar lines,
// event exports and store entries. Well-formed client IDs (not just
// 32-hex ones) are still honored verbatim.
func TestServerTraceHeaderValidation(t *testing.T) {
	compile := func(ctx context.Context, req facc.CompileRequest) (CompileResult, error) {
		return CompileResult{AdapterC: "/* ok */", Function: "fft"}, nil
	}
	s := New(Config{
		QueueDepth: 4, Workers: 1,
		Tracer: obs.New(), Compile: compile,
	})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	generated := regexp.MustCompile(`^[0-9a-f]{32}$`)
	hostile := []string{
		strings.Repeat("x", 65), // over the length cap
		"trace with spaces",     // charset violation
		"semi;colon",            // header-injection flavor
		`quote"breaker`,         // JSON-injection flavor
		"curly{brace}",          // Prometheus label breaker
	}
	for i, trace := range hostile {
		resp := postTraced(t, ts, facc.CompileRequest{
			Name: "t.c", Source: fmt.Sprintf("hostile-%d", i), Target: "ffta",
		}, "?wait=1", trace)
		got := resp.Header.Get("X-Facc-Trace")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got == trace {
			t.Errorf("hostile trace %q echoed back verbatim", trace)
		}
		if !generated.MatchString(got) {
			t.Errorf("hostile trace %q: replacement %q is not a generated ID", trace, got)
		}
	}

	valid := []string{"build-42.stage_1", "A", strings.Repeat("y", 64)}
	for i, trace := range valid {
		resp := postTraced(t, ts, facc.CompileRequest{
			Name: "t.c", Source: fmt.Sprintf("valid-%d", i), Target: "ffta",
		}, "?wait=1", trace)
		got := resp.Header.Get("X-Facc-Trace")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got != trace {
			t.Errorf("valid trace %q not echoed (got %q)", trace, got)
		}
	}
}

// TestServerFlightRecorderConcurrent hammers the daemon with parallel
// successful and failing requests while /status, /metrics and
// /debug/requests are read concurrently — under -race this is the
// data-race proof for the event stream + flight-recorder write/read paths.
func TestServerFlightRecorderConcurrent(t *testing.T) {
	injected := errors.New("injected fault")
	compile := func(ctx context.Context, req facc.CompileRequest) (CompileResult, error) {
		if strings.HasSuffix(req.Source, "!") {
			return CompileResult{}, injected
		}
		return CompileResult{AdapterC: "/* ok */", Function: "fft"}, nil
	}
	tr := obs.New()
	s := New(Config{
		QueueDepth: 64, Workers: 4,
		Tracer: tr, Events: obs.NewEvents(),
		FlightRecorder: 8,
		Compile:        compile,
	})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, path := range []string{"/status", "/metrics", "/debug/requests"} {
		readers.Add(1)
		go func(path string) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Get(ts.URL + path)
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	const requests = 24
	var wg sync.WaitGroup
	errc := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := fmt.Sprintf("src-%d", i)
			if i%3 == 0 {
				src += "!" // every third request hits the injected fault
			}
			body, err := json.Marshal(facc.CompileRequest{Name: "t.c", Source: src, Target: "ffta"})
			if err != nil {
				errc <- err
				return
			}
			resp, err := ts.Client().Post(ts.URL+"/compile?wait=1", "application/json", bytes.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	slow, failed := s.flight.Len()
	if slow == 0 || failed == 0 {
		t.Fatalf("flight recorder retained %d slowest / %d failed, want both > 0", slow, failed)
	}
	if slow > 8 || failed > 8 {
		t.Fatalf("flight recorder exceeded its cap: %d slowest / %d failed", slow, failed)
	}
	dresp, err := ts.Client().Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var dump debugRequests
	if err := json.NewDecoder(dresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	for _, r := range dump.Failed {
		if r.State != string(Failed) || !r.SLOViolation {
			t.Errorf("failure ring holds a non-failed record: %+v", r)
		}
	}
	c := tr.Metrics().Counters()
	if c["serve.slo_total"] != requests {
		t.Errorf("slo_total = %d, want %d", c["serve.slo_total"], requests)
	}
	if c["serve.slo_violations"] < c["serve.jobs_failed"] || c["serve.jobs_failed"] == 0 {
		t.Errorf("slo_violations = %d with %d failed jobs",
			c["serve.slo_violations"], c["serve.jobs_failed"])
	}
}

// TestFlightRecorderBounds: eviction keeps both retention classes at the
// cap, the slowest list stays sorted, every record the recorder holds
// was reported kept and not yet evicted, a record is evicted once even
// when it leaves both classes at once, and a nil recorder is a no-op.
func TestFlightRecorderBounds(t *testing.T) {
	f := NewFlightRecorder(3)
	// held counts the holds Observe hands over: one per kept record, given
	// back by its eviction, as the server holds and releases traces.
	held := map[*RequestRecord]int{}
	observe := func(f *FlightRecorder, rec *RequestRecord) {
		kept, evicted := f.Observe(rec)
		if kept {
			held[rec]++
		}
		for _, r := range evicted {
			if held[r]--; held[r] == 0 {
				delete(held, r)
			}
		}
	}
	checkHeld := func(f *FlightRecorder) {
		t.Helper()
		slowest, failed := f.Records()
		in := map[*RequestRecord]bool{}
		for _, r := range append(slowest, failed...) {
			in[r] = true
		}
		for r, n := range held {
			if n != 1 || !in[r] {
				t.Errorf("%s: %d holds, retained %v; want 1 hold while retained", r.Trace, n, in[r])
			}
		}
		if len(held) != len(in) {
			t.Errorf("%d records hold their trace, %d are retained", len(held), len(in))
		}
	}
	for i := 0; i < 10; i++ {
		observe(f, &RequestRecord{
			Trace:     fmt.Sprintf("t%d", i),
			LatencyMS: float64(i),
			State:     string(Done),
		})
	}
	slowest, failed := f.Records()
	if len(slowest) != 3 || len(failed) != 0 {
		t.Fatalf("retained %d/%d, want 3/0", len(slowest), len(failed))
	}
	for i, want := range []float64{9, 8, 7} {
		if slowest[i].LatencyMS != want {
			t.Errorf("slowest[%d] = %.0f ms, want %.0f", i, slowest[i].LatencyMS, want)
		}
	}
	for i := 0; i < 5; i++ {
		observe(f, &RequestRecord{
			Trace:     fmt.Sprintf("f%d", i),
			LatencyMS: 0.1,
			State:     string(Failed),
		})
	}
	checkHeld(f)
	_, failed = f.Records()
	if len(failed) != 3 {
		t.Fatalf("failure ring holds %d, want 3", len(failed))
	}
	// Ring semantics: oldest evicted, newest retained.
	if failed[0].Trace != "f2" || failed[2].Trace != "f4" {
		t.Errorf("failure ring order: %s..%s, want f2..f4", failed[0].Trace, failed[2].Trace)
	}

	// At cap 1 a failed record is both the oldest failure and the fastest
	// of the slowest, so a slower failure pushes it out of both at once.
	clear(held)
	one := NewFlightRecorder(1)
	observe(one, &RequestRecord{Trace: "a", LatencyMS: 5, State: string(Failed)})
	observe(one, &RequestRecord{Trace: "b", LatencyMS: 10, State: string(Failed)})
	checkHeld(one)

	var nilRec *FlightRecorder
	if kept, evicted := nilRec.Observe(&RequestRecord{}); kept || evicted != nil {
		t.Errorf("nil recorder kept %v, evicted %d", kept, len(evicted))
	}
	if s, fl := nilRec.Len(); s != 0 || fl != 0 {
		t.Error("nil recorder retained records")
	}
}
