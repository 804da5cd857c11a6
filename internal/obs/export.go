package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// ChromeEvent is one entry of the Chrome trace_event format (the subset
// FACC emits: "X" complete events plus "M" metadata). Files load directly
// in chrome://tracing and Perfetto.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the enclosing trace_event object form.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

func (s *Span) args() map[string]any {
	if len(s.Attrs) == 0 {
		return nil
	}
	args := make(map[string]any, len(s.Attrs))
	for _, a := range s.Attrs {
		args[a.Key] = a.Value()
	}
	return args
}

// WriteChromeTrace exports every completed span as a Chrome trace_event
// "complete" event. Each root span gets its own tid lane, so concurrent
// compilations render side by side and children nest (by time
// containment) under their ancestors.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	trace := ChromeTrace{DisplayTimeUnit: "ms"}
	trace.TraceEvents = append(trace.TraceEvents, ChromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "facc"},
	})
	for _, s := range t.Spans() {
		args := s.args()
		if s.Trace != "" {
			if args == nil {
				args = map[string]any{}
			}
			args["trace"] = s.Trace
		}
		trace.TraceEvents = append(trace.TraceEvents, ChromeEvent{
			Name: s.Name,
			Cat:  "facc",
			Ph:   "X",
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.Dur) / float64(time.Microsecond),
			Pid:  1,
			Tid:  s.Root,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// jsonlSpan is the JSON-lines span record.
type jsonlSpan struct {
	Type    string         `json:"type"`
	Name    string         `json:"name"`
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	Trace   string         `json:"trace,omitempty"`
	Wall    string         `json:"wall"`
	StartUs float64        `json:"start_us"`
	DurUs   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// WriteJSONL exports the trace as one JSON object per line: span events
// first (in completion order), then counter/gauge/histogram records.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		rec := jsonlSpan{
			Type:    "span",
			Name:    s.Name,
			ID:      s.ID,
			Parent:  s.Par,
			Trace:   s.Trace,
			Wall:    s.WallStart().Format(time.RFC3339Nano),
			StartUs: float64(s.Start) / float64(time.Microsecond),
			DurUs:   float64(s.Dur) / float64(time.Microsecond),
			Attrs:   s.args(),
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	reg := t.Metrics()
	counters := reg.Counters()
	for _, name := range sortedKeys(counters) {
		if err := enc.Encode(map[string]any{
			"type": "counter", "name": name, "value": counters[name],
		}); err != nil {
			return err
		}
	}
	gauges := reg.Gauges()
	for _, name := range sortedKeys(gauges) {
		if err := enc.Encode(map[string]any{
			"type": "gauge", "name": name, "value": gauges[name],
		}); err != nil {
			return err
		}
	}
	for _, h := range reg.Histograms() {
		if err := enc.Encode(map[string]any{
			"type": "histogram", "name": h.Name, "count": h.Count,
			"sum": h.Sum, "max": h.Max,
			"bounds": h.Bounds, "counts": h.Counts,
		}); err != nil {
			return err
		}
	}
	return nil
}

// errWriter latches the first write error so a long sequence of Fprintf
// calls can be checked once at the end.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

// WriteSummary renders a human-readable per-run report: per-stage span
// aggregates, then counters, gauges and histogram quantiles. The first
// write error aborts the report and is returned.
func (t *Tracer) WriteSummary(out io.Writer) error {
	w := &errWriter{w: out}
	type agg struct {
		name            string
		count           int64
		total, min, max time.Duration
	}
	byName := map[string]*agg{}
	for _, s := range t.Spans() {
		a := byName[s.Name]
		if a == nil {
			a = &agg{name: s.Name, min: s.Dur}
			byName[s.Name] = a
		}
		a.count++
		a.total += s.Dur
		if s.Dur < a.min {
			a.min = s.Dur
		}
		if s.Dur > a.max {
			a.max = s.Dur
		}
	}
	aggs := make([]*agg, 0, len(byName))
	for _, a := range byName {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].total > aggs[j].total })

	fmt.Fprintf(w, "== spans ==\n")
	fmt.Fprintf(w, "%-24s %8s %12s %12s %12s %12s\n",
		"stage", "count", "total", "mean", "min", "max")
	for _, a := range aggs {
		fmt.Fprintf(w, "%-24s %8d %12s %12s %12s %12s\n",
			a.name, a.count, fmtMs(a.total), fmtMs(a.total/time.Duration(a.count)),
			fmtMs(a.min), fmtMs(a.max))
	}

	reg := t.Metrics()
	counters := reg.Counters()
	if len(counters) > 0 {
		fmt.Fprintf(w, "\n== counters ==\n")
		for _, name := range sortedKeys(counters) {
			fmt.Fprintf(w, "%-40s %12d\n", name, counters[name])
		}
	}
	gauges := reg.Gauges()
	if len(gauges) > 0 {
		fmt.Fprintf(w, "\n== gauges ==\n")
		for _, name := range sortedKeys(gauges) {
			fmt.Fprintf(w, "%-40s %12g\n", name, gauges[name])
		}
	}
	hists := reg.Histograms()
	if len(hists) > 0 {
		fmt.Fprintf(w, "\n== histograms ==\n")
		fmt.Fprintf(w, "%-40s %8s %10s %10s %10s %10s\n",
			"name", "count", "mean", "p50", "p90", "max")
		for _, h := range hists {
			fmt.Fprintf(w, "%-40s %8d %10.3f %10.3f %10.3f %10.3f\n",
				h.Name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Max)
		}
	}
	return w.err
}

// fmtMs renders a duration at the unit that keeps it readable — µs for
// sub-millisecond stages, ms for the common case, s for multi-second
// totals — matching Result.Report()'s adaptive formatting.
func fmtMs(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
