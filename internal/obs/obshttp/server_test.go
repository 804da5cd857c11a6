package obshttp_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"facc/internal/accel"
	"facc/internal/core"
	"facc/internal/obs"
	"facc/internal/obs/obshttp"
	"facc/internal/synth"
)

// fftSrc is the repo's standard radix-2 {re,im}-struct fixture — it
// synthesizes successfully against the FFTA, so a compilation exercises
// the whole pipeline (binding, fuzzing, rangecheck, codegen).
const fftSrc = `
#include <math.h>
typedef struct { double re; double im; } cpx;
void fft(cpx* x, int n) {
    int j = 0;
    for (int i = 1; i < n; i++) {
        int bit = n >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j |= bit;
        if (i < j) {
            cpx tmp = x[i];
            x[i] = x[j];
            x[j] = tmp;
        }
    }
    for (int len = 2; len <= n; len <<= 1) {
        double ang = -2.0 * M_PI / (double)len;
        for (int i = 0; i < n; i += len) {
            for (int k = 0; k < len / 2; k++) {
                double wre = cos(ang * (double)k);
                double wim = sin(ang * (double)k);
                cpx u = x[i + k];
                cpx v;
                v.re = x[i + k + len / 2].re * wre - x[i + k + len / 2].im * wim;
                v.im = x[i + k + len / 2].re * wim + x[i + k + len / 2].im * wre;
                x[i + k].re = u.re + v.re;
                x[i + k].im = u.im + v.im;
                x[i + k + len / 2].re = u.re - v.re;
                x[i + k + len / 2].im = u.im - v.im;
            }
        }
    }
}`

func compileOnce(t testing.TB, tr *obs.Tracer, j *obs.Journal) {
	t.Helper()
	_, err := core.CompileSource(context.Background(), "fft.c", fftSrc, accel.NewFFTA(), core.Options{
		ProfileValues: map[string][]int64{"n": {64, 128, 256}},
		Synth:         synth.Options{NumTests: 4},
		Trace:         tr,
		Journal:       j,
	})
	if err != nil {
		t.Errorf("compile: %v", err)
	}
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// promHist is a histogram family reassembled from the text exposition.
type promHist struct {
	les                []string
	cums               []float64
	sum, count         float64
	haveSum, haveCount bool
}

// parseProm is a minimal test-side parser for the Prometheus text
// exposition format (version 0.0.4): it collects TYPE declarations,
// scalar samples, and histogram series keyed by family name.
func parseProm(t *testing.T, text string) (map[string]string, map[string]float64, map[string]*promHist) {
	t.Helper()
	types := map[string]string{}
	scalars := map[string]float64{}
	hists := map[string]*promHist{}
	hist := func(fam string) *promHist {
		h := hists[fam]
		if h == nil {
			h = &promHist{}
			hists[fam] = h
		}
		return h
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		labels := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("malformed labels in %q", line)
			}
			labels = name[i+1 : len(name)-1]
			name = name[:i]
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			fam := strings.TrimSuffix(name, "_bucket")
			le := strings.TrimPrefix(labels, `le="`)
			le = strings.TrimSuffix(le, `"`)
			h := hist(fam)
			h.les = append(h.les, le)
			h.cums = append(h.cums, v)
		case strings.HasSuffix(name, "_sum") && types[strings.TrimSuffix(name, "_sum")] == "histogram":
			h := hist(strings.TrimSuffix(name, "_sum"))
			h.sum, h.haveSum = v, true
		case strings.HasSuffix(name, "_count") && types[strings.TrimSuffix(name, "_count")] == "histogram":
			h := hist(strings.TrimSuffix(name, "_count"))
			h.count, h.haveCount = v, true
		default:
			scalars[name] = v
		}
	}
	return types, scalars, hists
}

// TestMetricsRoundTrip scrapes /metrics after a real compilation and
// verifies the exposition against the registry it came from: every
// counter and histogram round-trips, bucket series are cumulative and end
// at le="+Inf" == _count, and _sum/_count agree with the HistSnapshot.
func TestMetricsRoundTrip(t *testing.T) {
	tr := obs.New()
	compileOnce(t, tr, nil)

	srv := httptest.NewServer(obshttp.New(tr, nil, nil, nil).Handler())
	defer srv.Close()
	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	types, scalars, hists := parseProm(t, body)

	counters := tr.Metrics().Counters()
	if len(counters) == 0 {
		t.Fatal("compilation produced no counters")
	}
	for name, v := range counters {
		pn := obs.PromName(name)
		if types[pn] != "counter" {
			t.Errorf("%s: TYPE %q, want counter", pn, types[pn])
		}
		if got := scalars[pn]; got != float64(v) {
			t.Errorf("%s = %g, want %d", pn, got, v)
		}
	}

	snaps := tr.Metrics().Histograms()
	if len(snaps) == 0 {
		t.Fatal("compilation produced no histograms")
	}
	for _, s := range snaps {
		pn := obs.PromName(s.Name)
		h := hists[pn]
		if h == nil {
			t.Errorf("histogram %s missing from exposition", pn)
			continue
		}
		if types[pn] != "histogram" {
			t.Errorf("%s: TYPE %q, want histogram", pn, types[pn])
		}
		if len(h.les) != len(s.Bounds)+1 {
			t.Errorf("%s: %d buckets, want %d", pn, len(h.les), len(s.Bounds)+1)
			continue
		}
		// Cumulative and consistent with the snapshot's per-bucket counts.
		var cum int64
		for i := range s.Bounds {
			cum += s.Counts[i]
			if h.cums[i] != float64(cum) {
				t.Errorf("%s bucket le=%s = %g, want cumulative %d",
					pn, h.les[i], h.cums[i], cum)
			}
			if i > 0 && h.cums[i] < h.cums[i-1] {
				t.Errorf("%s bucket series not monotone at %d", pn, i)
			}
		}
		last := len(h.les) - 1
		if h.les[last] != "+Inf" || h.cums[last] != float64(s.Count) {
			t.Errorf("%s: final bucket le=%s=%g, want +Inf=%d",
				pn, h.les[last], h.cums[last], s.Count)
		}
		if !h.haveSum || !h.haveCount {
			t.Errorf("%s: missing _sum/_count", pn)
		}
		if h.count != float64(s.Count) {
			t.Errorf("%s_count = %g, want %d", pn, h.count, s.Count)
		}
		if diff := h.sum - s.Sum; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s_sum = %g, want %g", pn, h.sum, s.Sum)
		}
	}
}

// TestStatusAndTraceLiveMidCompilation runs compilations continuously in
// the background and scrapes /status and /trace while they are in flight:
// the status document must eventually show a live root span with its
// current stage, and /trace must always parse as a Chrome trace.
func TestStatusAndTraceLiveMidCompilation(t *testing.T) {
	tr := obs.New()
	j := obs.NewJournal()
	srv := httptest.NewServer(obshttp.New(tr, j, nil, nil).Handler())
	defer srv.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				compileOnce(t, tr, j)
			}
		}
	}()

	sawInFlight := false
	deadline := time.Now().Add(10 * time.Second)
	for !sawInFlight && time.Now().Before(deadline) {
		code, body := get(t, srv, "/status")
		if code != http.StatusOK {
			t.Fatalf("/status status %d", code)
		}
		var st obshttp.Status
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("/status not JSON: %v\n%s", err, body)
		}
		for _, inf := range st.InFlight {
			if inf.Root == "compile" && inf.Stage != "" {
				sawInFlight = true
			}
		}
		// The trace endpoint must serve a loadable snapshot at any moment.
		code, body = get(t, srv, "/trace")
		if code != http.StatusOK {
			t.Fatalf("/trace status %d", code)
		}
		if _, err := obs.ParseChromeTrace([]byte(body)); err != nil {
			t.Fatalf("/trace mid-compilation: %v", err)
		}
	}
	close(stop)
	<-done
	if !sawInFlight {
		t.Error("never observed an in-flight compilation in /status")
	}

	// Settled state: completed spans, pipeline counters, pass rate, journal.
	_, body := get(t, srv, "/status")
	var st obshttp.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.SpansCompleted == 0 {
		t.Error("spans_completed = 0 after compilations")
	}
	if st.CandidatesTested == 0 || st.Winners == 0 {
		t.Errorf("candidate accounting empty: %+v", st)
	}
	if st.FuzzPassRate <= 0 || st.FuzzPassRate > 1 {
		t.Errorf("fuzz_pass_rate = %g", st.FuzzPassRate)
	}
	if st.UptimeS <= 0 {
		t.Errorf("uptime_s = %g", st.UptimeS)
	}
	if st.JournalEvents == 0 {
		t.Error("journal_events = 0 with a journal attached")
	}

	code, body := get(t, srv, "/journal")
	if code != http.StatusOK {
		t.Fatalf("/journal status %d", code)
	}
	accepted := false
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		var ev obs.JournalEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		if ev.Kind == obs.KindAccepted {
			accepted = true
		}
	}
	if !accepted {
		t.Error("journal has no accepted event after successful compilations")
	}
}

// TestStatusRobustnessFields: the candidate panic and timeout counters
// and the store breaker's state gauge surface in the /status document.
func TestStatusRobustnessFields(t *testing.T) {
	tr := obs.New()
	reg := tr.Metrics()
	reg.Counter("synth.panics").Add(1)
	reg.Counter("synth.candidate_timeouts").Add(4)
	reg.Gauge("serve.queue_capacity").Set(4)
	reg.Gauge("store.breaker.state").Set(1)

	srv := httptest.NewServer(obshttp.New(tr, nil, nil, nil).Handler())
	defer srv.Close()
	_, body := get(t, srv, "/status")
	var st obshttp.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if st.CandidatePanics != 1 || st.CandidateTimeouts != 4 {
		t.Errorf("panics/timeouts = %d/%d, want 1/4", st.CandidatePanics, st.CandidateTimeouts)
	}
	if st.Serve == nil || st.Serve.StoreBreaker != "open" {
		t.Errorf("serve = %+v, want store_breaker_state open", st.Serve)
	}
}

// TestPprofAndIndexEndpoints: the pprof mux is wired and the index lists
// the surface.
func TestPprofAndIndexEndpoints(t *testing.T) {
	srv := httptest.NewServer(obshttp.New(obs.New(), nil, nil, nil).Handler())
	defer srv.Close()
	code, body := get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	code, body = get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index status %d body %q", code, body)
	}
	code, _ = get(t, srv, "/journal")
	if code != http.StatusNotFound {
		t.Errorf("/journal without journal: status %d, want 404", code)
	}
}

// TestServeBindsAndShutsDown covers the -serve plumbing: Serve binds an
// ephemeral port, answers /status, and the shutdown function stops it.
func TestServeBindsAndShutsDown(t *testing.T) {
	tr := obs.New()
	addr, shutdown, err := obshttp.Serve("127.0.0.1:0", tr, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/status", addr))
	if err != nil {
		t.Fatalf("GET /status on %s: %v", addr, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/status", addr)); err == nil {
		t.Error("server still answering after shutdown")
	}
}
