package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestChromeTraceRoundTrip emits a nested span tree, exports it to the
// Chrome trace_event format, parses it back, and verifies nesting (time
// containment within one tid lane) and durations survive the trip.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := New()
	root := tr.Span("compile").Str("target", "ffta")
	syn := root.Child("synthesize").Str("function", "fft")
	fuzz := syn.Child("fuzz").Int("tests", 10)
	time.Sleep(time.Millisecond)
	fuzz.End()
	syn.End()
	root.End()
	other := tr.Span("frontend") // second root: its own lane
	other.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	trace, err := ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	byName := map[string]ChromeEvent{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			byName[ev.Name] = ev
		}
	}
	for _, name := range []string{"compile", "synthesize", "fuzz", "frontend"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("missing event %q", name)
		}
	}

	comp, synE, fz := byName["compile"], byName["synthesize"], byName["fuzz"]
	// Same lane for the whole tree.
	if synE.Tid != comp.Tid || fz.Tid != comp.Tid {
		t.Errorf("tids: compile=%d synthesize=%d fuzz=%d", comp.Tid, synE.Tid, fz.Tid)
	}
	if byName["frontend"].Tid == comp.Tid {
		t.Error("independent roots share a tid lane")
	}
	// Nesting by time containment: child inside parent.
	contains := func(outer, inner ChromeEvent) bool {
		return inner.Ts >= outer.Ts && inner.Ts+inner.Dur <= outer.Ts+outer.Dur
	}
	if !contains(comp, synE) || !contains(synE, fz) {
		t.Errorf("events do not nest: compile=[%g,%g] synthesize=[%g,%g] fuzz=[%g,%g]",
			comp.Ts, comp.Dur, synE.Ts, synE.Dur, fz.Ts, fz.Dur)
	}
	// Durations match the recorded spans (both sides are microseconds).
	wantDur := float64(tr.Find("fuzz")[0].Dur) / float64(time.Microsecond)
	if fz.Dur != wantDur {
		t.Errorf("fuzz dur = %g us, want %g", fz.Dur, wantDur)
	}
	if fz.Dur < 900 { // slept 1ms
		t.Errorf("fuzz dur = %g us, want >= ~1000", fz.Dur)
	}
	// Attributes ride along as args.
	if got, ok := fz.Args["tests"].(float64); !ok || got != 10 {
		t.Errorf("fuzz args = %v, want tests=10", fz.Args)
	}
	if got := synE.Args["function"]; got != "fft" {
		t.Errorf("synthesize args = %v, want function=fft", synE.Args)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := New()
	sp := tr.Span("compile").Int("n", 3)
	sp.Child("fuzz").End()
	sp.End()
	tr.Metrics().Counter("binding.candidates").Add(7)
	tr.Metrics().Gauge("g").Set(1.5)
	tr.Metrics().Histogram("h", CountBuckets).Observe(3)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		types[rec["type"].(string)]++
	}
	if types["span"] != 2 {
		t.Errorf("span lines = %d, want 2", types["span"])
	}
	// The two span ends feed stage histograms, plus the explicit one.
	if types["counter"] != 1 || types["gauge"] != 1 || types["histogram"] != 3 {
		t.Errorf("metric lines = %v", types)
	}
}

// failWriter fails every write — the exporters must surface that.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errSink }

var errSink = errors.New("sink full")

// TestWriteSummaryPropagatesWriteErrors: a failing writer must surface its
// error (a full disk during -metrics export must not be silent).
func TestWriteSummaryPropagatesWriteErrors(t *testing.T) {
	tr := New()
	tr.Span("analyze").End()
	if err := tr.WriteSummary(failWriter{}); !errors.Is(err, errSink) {
		t.Errorf("WriteSummary returned %v, want %v", err, errSink)
	}
}

// TestFmtMsAdaptive: durations render at the readable unit — µs under a
// millisecond, ms under a second, seconds beyond — so a 2.5 s total is not
// printed as "2500.000ms".
func TestFmtMsAdaptive(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0.0µs"},
		{42 * time.Microsecond, "42.0µs"},
		{999 * time.Microsecond, "999.0µs"},
		{time.Millisecond, "1.000ms"},
		{843*time.Microsecond + 500*time.Nanosecond, "843.5µs"},
		{250 * time.Millisecond, "250.000ms"},
		{time.Second, "1.00s"},
		{2500 * time.Millisecond, "2.50s"},
	}
	for _, c := range cases {
		if got := fmtMs(c.d); got != c.want {
			t.Errorf("fmtMs(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestWriteSummary(t *testing.T) {
	tr := New()
	tr.Span("analyze").End()
	tr.Span("analyze").End()
	tr.Span("fuzz").End()
	tr.Metrics().Counter("interp.ops").Add(42)

	var buf bytes.Buffer
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== spans ==", "analyze", "fuzz",
		"== counters ==", "interp.ops", "== histograms =="} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// ParseChromeTrace decodes a trace produced by WriteChromeTrace (either
// the object form or a bare event array).
func ParseChromeTrace(data []byte) (*ChromeTrace, error) {
	var trace ChromeTrace
	if err := json.Unmarshal(data, &trace); err != nil {
		var events []ChromeEvent
		if err2 := json.Unmarshal(data, &events); err2 != nil {
			return nil, fmt.Errorf("obs: not a chrome trace: %w", err)
		}
		trace.TraceEvents = events
	}
	return &trace, nil
}
