package server

// What a compile request costs the daemon on its way in and out: one
// read of the body, one decode, one digest and one compact write of the
// reply.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"facc"
	"facc/internal/obs"
	"facc/internal/store"
)

// raceEnabled is set when the race detector is on (race_test.go).
var raceEnabled bool

// TestServeHitAllocs fills the store with one compile of each of three
// corpus programs, whose request bodies are 0.7, 2.2 and 18.2 KB, then
// serves 200 cache hits of it through the handler and bounds the heap
// bytes allocated per hit, the test's request and recorder included, at
// 2.5 times the body plus 24 KiB. Decoding the body copies the source
// about twice (its escaped and unescaped forms); nothing else on a hit
// should grow with the body. Under the race detector the hits are
// served and measured, but not bounded.
func TestServeHitAllocs(t *testing.T) {
	st, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Workers: 1, Store: st, Tracer: obs.New(), Events: obs.NewEvents(),
		Options: facc.Options{Workers: 1}})
	defer s.Drain(context.Background())
	h := s.Handler()
	for _, name := range []string{"dft12", "iterdit", "handopt"} {
		body, err := json.Marshal(corpusReq(t, name, "ffta", 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		serve := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile?wait=1", bytes.NewReader(body)))
			return rec
		}
		if rec := serve(); rec.Code != http.StatusOK {
			t.Fatalf("%s: filling the store: status %d: %s", name, rec.Code, rec.Body)
		}
		const hits = 200
		missed := 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < hits; i++ {
			if rec := serve(); rec.Code != http.StatusOK || rec.Header().Get("X-Facc-Cache") != "hit" {
				missed++
			}
		}
		runtime.ReadMemStats(&after)
		if missed > 0 {
			t.Fatalf("%s: %d of %d repeats were not cache hits", name, missed, hits)
		}
		perHit := float64(after.TotalAlloc-before.TotalAlloc) / hits
		limit := 2.5*float64(len(body)) + 24<<10
		t.Logf("%s: body %.1f KB, %.1f KB allocated per hit (limit %.1f KB)",
			name, float64(len(body))/1e3, perHit/1e3, limit/1e3)
		if perHit > limit && !raceEnabled {
			t.Errorf("%s: a cache hit allocates %.1f KB for a %.1f KB body, want at most %.1f KB",
				name, perHit/1e3, float64(len(body))/1e3, limit/1e3)
		}
	}
}

// TestCompileReplyWireForm checks the wire form of a finished job, at
// /compile?wait=1 and again at /jobs/{id}: a Content-Length that matches
// the body, no chunked transfer, one line of compact JSON, and the
// fields a job reply has always carried. The adapter is larger than
// net/http's 2 KiB buffer, past which a reply without a length goes out
// chunked.
func TestCompileReplyWireForm(t *testing.T) {
	adapter := strings.Repeat("/* one line of the adapter <&> */\n", 100)
	s := New(Config{Workers: 1, Compile: func(context.Context, facc.CompileRequest) (CompileResult, error) {
		return CompileResult{AdapterC: adapter, Function: "fft", Sig: "spec=ffta"}, nil
	}})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := compileReq("void fft(double *x, int n) {}")
	resp := post(t, ts, req, "?wait=1")
	trace := resp.Header.Get("X-Facc-Trace")
	got := wireJob(t, "POST /compile?wait=1", resp)
	want := map[string]any{"id": got["id"], "state": "done", "key": req.Digest(), "trace": trace,
		"target": "ffta", "function": "fft", "sig": "spec=ffta", "adapter_c": adapter, "elapsed_ms": got["elapsed_ms"]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("POST /compile?wait=1 decodes to\n%v\nwant\n%v", got, want)
	}
	id, _ := got["id"].(string)
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	again := wireJob(t, "GET /jobs/"+id, resp)
	want["elapsed_ms"] = again["elapsed_ms"]
	if !reflect.DeepEqual(again, want) {
		t.Errorf("GET /jobs/%s decodes to\n%v\nwant\n%v", id, again, want)
	}
}

// wireJob reads a 200 job reply, checks its wire form and returns its
// decoded fields.
func wireJob(t *testing.T, what string, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, resp.StatusCode, body)
	}
	if len(resp.TransferEncoding) > 0 || resp.ContentLength != int64(len(body)) {
		t.Errorf("%s: transfer encoding %v, Content-Length %d, want none and %d",
			what, resp.TransferEncoding, resp.ContentLength, len(body))
	}
	line, ok := bytes.CutSuffix(body, []byte("\n"))
	var compact bytes.Buffer
	if err := json.Compact(&compact, line); err != nil || !ok || !bytes.Equal(compact.Bytes(), line) {
		t.Errorf("%s: reply is not one line of compact JSON: %.200q", what, body)
	}
	var fields map[string]any
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return fields
}
