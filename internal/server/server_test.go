package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"facc"
	"facc/internal/bench"
	"facc/internal/obs"
	"facc/internal/obs/obshttp"
	"facc/internal/store"
)

func compileReq(src string) facc.CompileRequest {
	return facc.CompileRequest{Name: "t.c", Source: src, Target: "ffta"}
}

func post(t *testing.T, ts *httptest.Server, req facc.CompileRequest, query string) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/compile"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) jobJSON {
	t.Helper()
	defer resp.Body.Close()
	var v jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// gateCompile is a CompileFunc whose calls announce themselves on
// entered and park until release is closed, so tests can hold workers
// busy deterministically.
type gateCompile struct {
	mu      sync.Mutex
	calls   int
	entered chan struct{}
	release chan struct{}
	open    sync.Once
}

func newGateCompile() *gateCompile {
	return &gateCompile{
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (g *gateCompile) compile(ctx context.Context, req facc.CompileRequest) (CompileResult, error) {
	g.mu.Lock()
	g.calls++
	g.mu.Unlock()
	g.entered <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return CompileResult{}, ctx.Err()
	}
	return CompileResult{AdapterC: "/* adapter for */ " + req.Source, Function: "fft"}, nil
}

func (g *gateCompile) callCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

// unblock lets every parked (and future) compile finish; safe to call
// more than once.
func (g *gateCompile) unblock() {
	g.open.Do(func() { close(g.release) })
}

func waitEntered(t *testing.T, g *gateCompile) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no compile started")
	}
}

// TestServerSheds429UnderSaturation is the overload half of the ISSUE
// acceptance: with one busy worker and a full queue, the next request is
// shed with 429 + Retry-After while the admitted jobs still complete,
// and the shed count is visible in both /status and /metrics.
func TestServerSheds429UnderSaturation(t *testing.T) {
	gate := newGateCompile()
	tr := obs.New()
	s := New(Config{QueueDepth: 2, Workers: 1, Tracer: tr, Compile: gate.compile})
	defer s.Drain(context.Background())
	defer gate.unblock()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First job occupies the only worker...
	resp := post(t, ts, compileReq("src-0"), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 0: status %d", resp.StatusCode)
	}
	running := decodeJob(t, resp)
	waitEntered(t, gate)
	// ...two more fill the queue...
	var queued []string
	for i := 1; i <= 2; i++ {
		resp := post(t, ts, compileReq(fmt.Sprintf("src-%d", i)), "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, resp.StatusCode)
		}
		queued = append(queued, decodeJob(t, resp).ID)
	}
	// ...and the next is shed, not queued, not errored.
	resp = post(t, ts, compileReq("src-3"), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()

	// The shed is observable: /status serve block and Prometheus.
	var status obshttp.Status
	sresp, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if status.Serve == nil {
		t.Fatal("/status has no serve block")
	}
	if status.Serve.JobsShed != 1 || status.Serve.QueueCapacity != 2 || status.Serve.Workers != 1 {
		t.Fatalf("serve status = %+v", status.Serve)
	}
	if status.Serve.JobsAdmitted != 3 {
		t.Fatalf("jobs_admitted = %d, want 3", status.Serve.JobsAdmitted)
	}
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(prom), "facc_serve_jobs_shed 1") {
		t.Fatalf("/metrics missing shed count:\n%s", prom)
	}

	// In-flight and queued jobs complete despite the overload.
	gate.unblock()
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range append([]string{running.ID}, queued...) {
		for {
			jresp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "?wait=1")
			if err != nil {
				t.Fatal(err)
			}
			v := decodeJob(t, jresp)
			if v.State == string(Done) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, v.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if got := tr.Metrics().Counters()["serve.jobs_completed"]; got != 3 {
		t.Fatalf("jobs_completed = %d, want 3", got)
	}
}

// TestServerDedupSingleflight: identical sources submitted while the
// first is in flight attach to the same job; the compiler runs once.
func TestServerDedupSingleflight(t *testing.T) {
	gate := newGateCompile()
	tr := obs.New()
	s := New(Config{QueueDepth: 8, Workers: 2, Tracer: tr, Compile: gate.compile})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan jobJSON, 1)
	go func() {
		resp := post(t, ts, compileReq("same-source"), "?wait=1")
		first <- decodeJob(t, resp)
	}()
	waitEntered(t, gate)

	resp := post(t, ts, compileReq("same-source"), "")
	// The duplicate was attached to the in-flight job, not enqueued.
	if resp.Header.Get("X-Facc-Dedup") != "true" {
		t.Fatalf("duplicate not deduped (headers %v)", resp.Header)
	}
	attached := decodeJob(t, resp)
	gate.unblock()
	orig := <-first
	if attached.ID != orig.ID {
		t.Fatalf("duplicate got its own job: %s vs %s", attached.ID, orig.ID)
	}
	jresp, err := ts.Client().Get(ts.URL + "/jobs/" + orig.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	dup := decodeJob(t, jresp)
	if dup.ID != orig.ID || dup.AdapterC != orig.AdapterC || dup.State != string(Done) {
		t.Fatalf("dedup mismatch: orig=%+v dup=%+v", orig, dup)
	}
	if gate.callCount() != 1 {
		t.Fatalf("compile ran %d times, want 1", gate.callCount())
	}
	if got := tr.Metrics().Counters()["serve.jobs_deduped"]; got != 1 {
		t.Fatalf("jobs_deduped = %d, want 1", got)
	}
}

// TestServerStoreMemoizes: a second identical request is served from the
// adapter store without recompiling, across server instances.
func TestServerStoreMemoizes(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, obs.New().Metrics())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	countCompile := func(ctx context.Context, req facc.CompileRequest) (CompileResult, error) {
		calls++
		return CompileResult{AdapterC: "/* cached adapter */", Function: "fft"}, nil
	}
	s := New(Config{QueueDepth: 4, Workers: 1, Store: st, Compile: countCompile})
	ts := httptest.NewServer(s.Handler())

	resp := post(t, ts, compileReq("memoized"), "?wait=1")
	if resp.Header.Get("X-Facc-Cache") == "hit" {
		t.Fatal("first request claims a cache hit")
	}
	v := decodeJob(t, resp)
	if v.State != string(Done) {
		t.Fatalf("first request: %+v", v)
	}
	resp = post(t, ts, compileReq("memoized"), "?wait=1")
	if resp.Header.Get("X-Facc-Cache") != "hit" {
		t.Fatal("second request missed the store")
	}
	v2 := decodeJob(t, resp)
	if !v2.Cached || v2.AdapterC != v.AdapterC {
		t.Fatalf("cached response = %+v", v2)
	}
	if calls != 1 {
		t.Fatalf("compile ran %d times, want 1", calls)
	}
	ts.Close()
	s.Drain(context.Background())
	st.Close()

	// A fresh daemon on the same store inherits the cache: restarts are
	// warm.
	st2, err := store.Open(dir, obs.New().Metrics())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := New(Config{QueueDepth: 4, Workers: 1, Store: st2, Compile: countCompile})
	defer s2.Drain(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp = post(t, ts2, compileReq("memoized"), "?wait=1")
	if resp.Header.Get("X-Facc-Cache") != "hit" {
		t.Fatal("restarted daemon missed the store")
	}
	if v3 := decodeJob(t, resp); v3.AdapterC != v.AdapterC {
		t.Fatal("restarted daemon served a different adapter")
	}
	if calls != 1 {
		t.Fatalf("compile ran %d times after restart, want 1", calls)
	}
}

// TestServerGracefulDrain: during drain the daemon refuses new work
// (503, /readyz not ready) but finishes what it admitted.
func TestServerGracefulDrain(t *testing.T) {
	gate := newGateCompile()
	s := New(Config{QueueDepth: 4, Workers: 1, Compile: gate.compile})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := post(t, ts, compileReq("in-flight"), "")
	job := decodeJob(t, resp)
	waitEntered(t, gate)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	rresp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", rresp.StatusCode)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: %d, want 200 (still alive)", hresp.StatusCode)
	}
	resp = post(t, ts, compileReq("late"), "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without Retry-After")
	}
	resp.Body.Close()

	gate.unblock()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	jresp, err := ts.Client().Get(ts.URL + "/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v := decodeJob(t, jresp); v.State != string(Done) {
		t.Fatalf("in-flight job after drain: %+v", v)
	}
}

// TestServerDrainDeadlineHardCancels: when the drain budget expires, the
// stuck compile is cancelled through the base context and surfaces as a
// failed job rather than a hung daemon.
func TestServerDrainDeadlineHardCancels(t *testing.T) {
	stuck := func(ctx context.Context, req facc.CompileRequest) (CompileResult, error) {
		<-ctx.Done() // a compile that never yields on its own
		return CompileResult{}, ctx.Err()
	}
	tr := obs.New()
	s := New(Config{QueueDepth: 4, Workers: 1, Tracer: tr, Compile: stuck})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := post(t, ts, compileReq("stuck"), "")
	job := decodeJob(t, resp)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain of a stuck job reported success")
	}
	jresp, err := ts.Client().Get(ts.URL + "/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v := decodeJob(t, jresp); v.State != string(Failed) {
		t.Fatalf("stuck job after hard cancel: %+v", v)
	}
	if got := tr.Metrics().Counters()["serve.drain_hard_cancels"]; got != 1 {
		t.Fatalf("drain_hard_cancels = %d, want 1", got)
	}
}

// TestServerRejectsBadRequests covers the admission validations.
func TestServerRejectsBadRequests(t *testing.T) {
	s := New(Config{QueueDepth: 2, Workers: 1, Compile: func(context.Context, facc.CompileRequest) (CompileResult, error) {
		return CompileResult{}, nil
	}})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		req  facc.CompileRequest
		want int
	}{
		{facc.CompileRequest{Source: "", Target: "ffta"}, http.StatusBadRequest},
		{facc.CompileRequest{Source: "void f() {}", Target: "tpu9000"}, http.StatusBadRequest},
		{facc.CompileRequest{Source: "void f() {}", Target: "ffta", NumTests: -1}, http.StatusBadRequest},
		{facc.CompileRequest{Source: "void f() {}", Target: "ffta", NumTests: 1000000000}, http.StatusBadRequest},
	} {
		resp := post(t, ts, tc.req, "")
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %+v: status %d, want %d", tc.req, resp.StatusCode, tc.want)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile: status %d, want 405", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/jobs/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /jobs/nonesuch: status %d, want 404", resp.StatusCode)
	}
}

// TestServerCrashRecoveryEndToEnd: compile a real corpus program through
// the daemon, tear its cached adapter on disk mid-"write" (its frame
// damaged, and the log ending in an append that never finished), restart,
// and require that the store quarantines the damage, the daemon
// recompiles, and the served adapter is byte-identical to what the
// sequential CLI path produces.
func TestServerCrashRecoveryEndToEnd(t *testing.T) {
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
	var opts facc.Options

	// The sequential CLI baseline: same request, no daemon.
	base, err := facc.CompileRequestContext(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !base.OK() {
		t.Fatalf("baseline compile failed: %s", base.FailReason())
	}
	want := base.AdapterC()

	dir := t.TempDir()
	st, err := store.Open(dir, obs.New().Metrics())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{QueueDepth: 4, Workers: 2, Store: st, Options: opts})
	ts := httptest.NewServer(s.Handler())

	resp := post(t, ts, req, "?wait=1")
	v := decodeJob(t, resp)
	if v.State != string(Done) {
		t.Fatalf("daemon compile: %+v", v)
	}
	if v.AdapterC != want {
		t.Fatal("daemon adapter differs from the sequential CLI run")
	}
	ts.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Crash: the frame holding the entry's record is damaged on disk (a
	// torn write its checksums will catch) and the log gains a torn tail
	// — an append whose durability fsync never completed. The entry
	// record keeps the adapter source unescaped, so one of its lines
	// locates the entry's bytes.
	const line = "accel_cfft(__acc_in, __acc_out, __len);"
	if !strings.Contains(want, line) {
		t.Fatalf("the adapter no longer contains the line that locates its entry: %q", line)
	}
	corruptStoreLog(t, dir, []byte(line))
	log, err := os.OpenFile(filepath.Join(dir, store.LogFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	log.Write([]byte("\xff\xff\xff\x7f torn mid-append"))
	log.Close()

	// Restart: recovery quarantines the torn entry, the next request
	// recompiles, and the result matches the baseline byte for byte.
	reg2 := obs.New()
	st2, err := store.Open(dir, reg2.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := reg2.Metrics().Counters()["store.corrupt_quarantined"]; got != 1 {
		t.Fatalf("corrupt_quarantined after restart = %d, want 1", got)
	}
	s2 := New(Config{QueueDepth: 4, Workers: 2, Store: st2, Options: opts, Tracer: reg2})
	defer s2.Drain(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	resp = post(t, ts2, req, "?wait=1")
	if resp.Header.Get("X-Facc-Cache") == "hit" {
		t.Fatal("torn entry served as a cache hit")
	}
	v = decodeJob(t, resp)
	if v.State != string(Done) {
		t.Fatalf("recompile after recovery: %+v", v)
	}
	if v.AdapterC != want {
		t.Fatal("recompiled adapter differs from the sequential CLI run")
	}

	// And the heal is durable: the next request is a byte-identical hit.
	resp = post(t, ts2, req, "?wait=1")
	if resp.Header.Get("X-Facc-Cache") != "hit" {
		t.Fatal("healed entry not served from the store")
	}
	if v2 := decodeJob(t, resp); v2.AdapterC != want {
		t.Fatal("healed adapter differs from the sequential CLI run")
	}
}

// corruptStoreLog flips the bytes of the last on-disk occurrence of
// needle inside the store's log — damage the frame and entry checksums
// must catch. The last occurrence is the live copy: earlier ones may be
// superseded frames nothing references.
func corruptStoreLog(t *testing.T, dir string, needle []byte) {
	t.Helper()
	path := filepath.Join(dir, store.LogFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndex(data, needle)
	if i < 0 {
		t.Fatalf("%s does not contain %q", store.LogFile, needle)
	}
	for j := i; j < i+len(needle); j++ {
		data[j] ^= 0xFF
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServerQuarantineSingleflight: when a cached entry is quarantined,
// a burst of identical requests must collapse into exactly ONE
// recompile — the first miss registers the in-flight job, the rest
// dedup onto it, and nobody is ever served the damaged adapter.
func TestServerQuarantineSingleflight(t *testing.T) {
	dir := t.TempDir()
	req := compileReq("quarantine-singleflight")
	key := req.Digest()

	st, err := store.Open(dir, obs.New().Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, store.Entry{
		Target:   "ffta",
		Function: "fft",
		AdapterC: "/* QUARANTINE-TARGET adapter */",
	}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	corruptStoreLog(t, dir, []byte("QUARANTINE-TARGET"))

	reg := obs.New()
	st2, err := store.Open(dir, reg.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := reg.Metrics().Counters()["store.corrupt_quarantined"]; got < 1 {
		t.Fatalf("corrupt_quarantined = %d, want >= 1", got)
	}

	gate := newGateCompile()
	s := New(Config{QueueDepth: 8, Workers: 2, Store: st2, Tracer: reg, Compile: gate.compile})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First request: must miss (quarantined entries are never served)
	// and start the one recompile.
	type reply struct {
		hit   bool
		dedup bool
		v     jobJSON
	}
	replies := make(chan reply, 6)
	doPost := func() {
		resp := post(t, ts, req, "?wait=1")
		replies <- reply{
			hit:   resp.Header.Get("X-Facc-Cache") == "hit",
			dedup: resp.Header.Get("X-Facc-Dedup") == "true",
			v:     decodeJob(t, resp),
		}
	}
	go doPost()
	waitEntered(t, gate)
	// Recompile is parked mid-flight: five more identical requests must
	// all attach to it, not start their own.
	for i := 0; i < 5; i++ {
		go doPost()
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < 5; i++ {
		select {
		case <-gate.entered:
			t.Fatal("a deduped request started a second recompile")
		case <-time.After(50 * time.Millisecond):
		case <-deadline:
			t.Fatal("timed out waiting for dedup settle")
		}
	}
	gate.unblock()

	deduped := 0
	for i := 0; i < 6; i++ {
		select {
		case r := <-replies:
			if r.hit {
				t.Fatal("a request was served the quarantined adapter as a cache hit")
			}
			if r.v.State != string(Done) {
				t.Fatalf("request finished %+v", r.v)
			}
			if r.dedup {
				deduped++
			}
		case <-time.After(10 * time.Second):
			t.Fatal("request never finished")
		}
	}
	if got := gate.callCount(); got != 1 {
		t.Fatalf("recompiles = %d, want exactly 1", got)
	}
	if deduped != 5 {
		t.Fatalf("deduped replies = %d, want 5", deduped)
	}

	// The heal is durable: the recompiled adapter committed, clearing
	// the quarantine, so the next request is a plain cache hit.
	resp := post(t, ts, req, "?wait=1")
	if resp.Header.Get("X-Facc-Cache") != "hit" {
		t.Fatal("healed entry not served from the store")
	}
	decodeJob(t, resp)
}

// TestServerRetryAfterScalesWithQueueDepth: the 429 Retry-After hint is
// backlog × average compile time ÷ workers — a saturated daemon with
// slow compiles tells clients to come back later than an idle one, so
// the retry wave lands when capacity plausibly exists.
func TestServerRetryAfterScalesWithQueueDepth(t *testing.T) {
	gate := newGateCompile()
	s := New(Config{QueueDepth: 8, Workers: 1, Compile: gate.compile})
	defer s.Drain(context.Background())
	defer gate.unblock()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Recent compiles averaged two seconds.
	s.observeCompileTime(2 * time.Second)

	// One job on the worker, eight in the queue.
	resp := post(t, ts, compileReq("ra-0"), "")
	resp.Body.Close()
	waitEntered(t, gate)
	for i := 1; i <= 8; i++ {
		resp := post(t, ts, compileReq(fmt.Sprintf("ra-%d", i)), "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp = post(t, ts, compileReq("ra-9"), "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST: status %d, want 429", resp.StatusCode)
	}
	// Backlog is 9 jobs (1 running + 8 queued) × 2s each ÷ 1 worker.
	if ra := resp.Header.Get("Retry-After"); ra != "18" {
		t.Fatalf("Retry-After = %q, want %q", ra, "18")
	}

	// The hint is clamped: even an absurd EMA cannot push it past 60s.
	s.observeCompileTime(30 * time.Minute)
	resp = post(t, ts, compileReq("ra-10"), "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second shed: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "60" {
		t.Fatalf("clamped Retry-After = %q, want %q", ra, "60")
	}
}
