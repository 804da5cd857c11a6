package server

// The daemon-wide oracle cache: every facc-backed compile shares one
// OracleCache, so a program the daemon has compiled before costs no
// reference runs, whatever the target or the comparison options; the
// cache is replaced once it outgrows its budget.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"facc"
	"facc/internal/bench"
	"facc/internal/obs"
	"facc/internal/store"
)

// corpusReq is a compile request for corpus program name on target at
// tolerance tol (0 = the default).
func corpusReq(t testing.TB, name, target string, numTests int, tol float64) facc.CompileRequest {
	t.Helper()
	bm, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return facc.CompileRequest{Name: bm.File, Source: bm.Source(), Target: target,
		Entry: bm.Entry, ProfileValues: bm.ProfileValues, NumTests: numTests, Tolerance: tol}
}

// compileAll posts every request at once, one client each, req i under
// trace traces[i], and returns the finished jobs in request order.
func compileAll(t *testing.T, ts *httptest.Server, reqs []facc.CompileRequest, traces []string) []jobJSON {
	t.Helper()
	jobs := make([]jobJSON, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i], errs[i] = postWait(ts, reqs[i], traces[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", reqs[i].Target, err)
		}
	}
	return jobs
}

// postWait posts req with ?wait=1 under trace and decodes the finished
// job; it is safe to call from any goroutine.
func postWait(ts *httptest.Server, req facc.CompileRequest, trace string) (jobJSON, error) {
	var v jobJSON
	body, err := json.Marshal(req)
	if err != nil {
		return v, err
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/compile?wait=1", bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	hreq.Header.Set("X-Facc-Trace", trace)
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, err
	}
	if v.State != string(Done) && v.State != string(Failed) {
		return v, fmt.Errorf("job %s not finished: %+v", v.ID, v)
	}
	return v, nil
}

// newRealServer starts a daemon with faccd's tracer and event stream
// around the real compile, synthesis at Workers=1 so the set of
// reference runs a compile needs is fixed.
func newRealServer(t testing.TB, workers int) (*Server, *httptest.Server, *obs.Tracer, *obs.Events) {
	t.Helper()
	tr, ev := obs.New(), obs.NewEvents()
	s := New(Config{
		QueueDepth: 16, Workers: workers,
		Tracer: tr, Events: ev,
		Options: facc.Options{Workers: 1},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(context.Background())
	})
	return s, ts, tr, ev
}

// traceCost sums the oracle lookups and steps the cost ledger books
// under trace.
func traceCost(ev *obs.Events, trace string) (hits, misses, steps int64) {
	_, sum := obs.FoldCosts(ev.Scoped(trace).Snapshot())
	tc := sum.Total
	return tc.OracleHits, tc.OracleMisses, tc.UsefulSteps + tc.SpeculativeSteps
}

// TestServerSharesReferenceRuns compiles one corpus program for its
// three targets at once, then again under another tolerance: the second
// pass interprets nothing, books only oracle hits, and serves the
// adapters a fresh daemon compiles.
func TestServerSharesReferenceRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("real synthesis in -short mode")
	}
	targets := facc.Targets()
	pass := func(tol float64, tag string) ([]facc.CompileRequest, []string) {
		var reqs []facc.CompileRequest
		var traces []string
		for _, target := range targets {
			reqs = append(reqs, corpusReq(t, "iterdit", target, 3, tol))
			traces = append(traces, tag+"-"+target)
		}
		return reqs, traces
	}
	_, ts, tr, led := newRealServer(t, 2)
	steps := tr.Metrics().Counter("interp.steps")

	reqs1, traces1 := pass(0, "first")
	compileAll(t, ts, reqs1, traces1)
	before := steps.Value()
	if before == 0 {
		t.Fatal("the first pass interpreted nothing")
	}

	reqs2, traces2 := pass(2e-3*(1+1e-9), "second")
	jobs := compileAll(t, ts, reqs2, traces2)
	if got := steps.Value(); got != before {
		t.Errorf("the second pass added %d interpreter steps, want 0", got-before)
	}
	for i, trace := range traces2 {
		hits, misses, st := traceCost(led, trace)
		if misses != 0 || st != 0 || hits == 0 {
			t.Errorf("%s: ledger booked %d hits, %d misses, %d steps; want only hits",
				targets[i], hits, misses, st)
		}
	}
	c := tr.Metrics().Counters()
	if c["synth.oracle_hits"] <= c["synth.oracle_misses"] {
		t.Errorf("synth.oracle_hits = %d, not above synth.oracle_misses = %d",
			c["synth.oracle_hits"], c["synth.oracle_misses"])
	}

	// A fresh daemon, with nothing to share, compiles the same bytes.
	_, fresh, _, _ := newRealServer(t, 1)
	for i, req := range reqs2 {
		want, err := postWait(fresh, req, "fresh-"+req.Target)
		if err != nil {
			t.Fatal(err)
		}
		got := jobs[i]
		if want.State != string(Done) || got.AdapterC != want.AdapterC ||
			got.Sig != want.Sig || got.FailReason != want.FailReason {
			t.Errorf("%s: shared-cache job differs from a fresh daemon's:\n got  %s %q %s\n want %s %q %s",
				req.Target, got.State, got.Sig, got.FailReason, want.State, want.Sig, want.FailReason)
		}
	}
}

// TestServerOracleBudget: once the shared cache holds more than the
// budget, the next compile starts on a fresh cache and interprets again,
// while a compile already running on the old cache finishes on it with
// the adapter a fresh daemon compiles.
func TestServerOracleBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("real synthesis in -short mode")
	}
	budget := oracleBudget
	t.Cleanup(func() { oracleBudget = budget })

	s, ts, tr, led := newRealServer(t, 2)
	warm := corpusReq(t, "iterdit", "ffta", 3, 0)
	if _, err := postWait(ts, warm, "warm"); err != nil {
		t.Fatal(err)
	}
	s.oracleMu.Lock()
	held := s.oracle.Bytes()
	s.oracleMu.Unlock()
	if held == 0 {
		t.Fatal("the shared cache holds nothing after a compile")
	}

	// A long compile on the warm cache: the winner runs every case.
	long := corpusReq(t, "dft20", "fftw", 60, 0)
	longDone := make(chan jobJSON, 1)
	longErr := make(chan error, 1)
	go func() {
		v, err := postWait(ts, long, "long")
		longDone <- v
		longErr <- err
	}()
	// Its compile span opens after it has taken the cache; no other
	// compile is running.
	for deadline := time.Now().Add(30 * time.Second); ; {
		if compiling(tr) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the long compile never started")
		}
		time.Sleep(100 * time.Microsecond)
	}

	oracleBudget = held - 1
	if _, err := postWait(ts, corpusReq(t, "iterdit", "ffta", 3, 2e-3*(1+1e-9)), "after"); err != nil {
		t.Fatal(err)
	}
	if _, misses, steps := traceCost(led, "after"); misses == 0 || steps == 0 {
		t.Errorf("a compile past the budget booked %d misses and %d steps: the cache was not replaced",
			misses, steps)
	}
	if n := tr.Metrics().Counters()["serve.oracle_resets"]; n != 1 {
		t.Errorf("serve.oracle_resets = %d, want 1", n)
	}
	if !compiling(tr) {
		t.Fatal("the long compile finished before the cache was replaced")
	}

	got, err := <-longDone, <-longErr
	if err != nil {
		t.Fatal(err)
	}
	oracleBudget = budget
	_, fresh, _, _ := newRealServer(t, 1)
	want, err := postWait(fresh, long, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if want.State != string(Done) || got.AdapterC != want.AdapterC || got.Sig != want.Sig {
		t.Errorf("the compile that outlived its cache differs from a fresh daemon's:\n got  %s %q\n want %s %q",
			got.State, got.Sig, want.State, want.Sig)
	}
}

// compiling reports whether a compile span is open.
func compiling(tr *obs.Tracer) bool {
	for _, sp := range tr.Active() {
		if sp.Name == "compile" {
			return true
		}
	}
	return false
}

// TestObserveSLOIgnoresHistory: finishing a job costs the same
// allocations after thousands of spans and candidate events recorded
// under other traces as on an empty daemon.
func TestObserveSLOIgnoresHistory(t *testing.T) {
	finish := func(history int) float64 {
		tr, ev := obs.New(), obs.NewEvents()
		for i := 0; i < history; i++ {
			trace := fmt.Sprintf("old%d", i)
			tr.Span("compile").SetTrace(trace).End()
			sev := ev.Scoped(trace)
			sev.Record(obs.Event{Kind: obs.KindCompile, Detail: "x"})
			sev.Record(obs.Event{Kind: obs.KindFuzz, Function: "fft", Target: "ffta",
				Candidate: fmt.Sprintf("cand%d", i), Outcome: "behavior-mismatch", Started: 3})
		}
		s := New(Config{Tracer: tr, Events: ev, Workers: 1,
			Compile: func(context.Context, facc.CompileRequest) (CompileResult, error) {
				return CompileResult{}, nil
			}})
		defer s.Drain(context.Background())
		job := &Job{ID: "j", Key: "k", Trace: "new", Req: facc.CompileRequest{Target: "ffta"}}
		return testing.AllocsPerRun(100, func() { s.observeSLO(job, Done, 1) })
	}
	empty, full := finish(0), finish(5000)
	if full > empty {
		t.Errorf("finishing a job allocates %.0f times after 5000 traces of history, %.0f on none",
			full, empty)
	}
}

// BenchmarkServeHit is one cached digest over an HTTP round trip: the
// request decode, store.Get on a real store, and the job's JSON.
func BenchmarkServeHit(b *testing.B) {
	st, err := store.Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Workers: 1, Store: st, Tracer: obs.New(), Events: obs.NewEvents(),
		Options: facc.Options{Workers: 1}})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Drain(context.Background())
	}()
	req := corpusReq(b, "iterdit", "ffta", 0, 0)
	if v, err := postWait(ts, req, "fill"); err != nil || v.State != string(Done) {
		b.Fatalf("filling the store: %+v %v", v, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := postWait(ts, req, "hit")
		if err != nil || !v.Cached {
			b.Fatalf("not a cache hit: %+v %v", v, err)
		}
	}
}

// BenchmarkServeFreshDigest is a compile of a program the daemon has
// already compiled, under a tolerance it has not seen: a new digest, so
// a queued compile, with every reference run an oracle hit.
func BenchmarkServeFreshDigest(b *testing.B) {
	st, err := store.Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Workers: 1, Store: st, Tracer: obs.New(), Events: obs.NewEvents(),
		Options: facc.Options{Workers: 1}})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Drain(context.Background())
	}()
	if _, err := postWait(ts, corpusReq(b, "iterdit", "ffta", 0, 0), "fill"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := corpusReq(b, "iterdit", "ffta", 0, 2e-3*(1+float64(i+1)*1e-9))
		v, err := postWait(ts, req, "fresh")
		if err != nil || v.State != string(Done) || v.Cached {
			b.Fatalf("not a fresh compile: %+v %v", v, err)
		}
	}
}
