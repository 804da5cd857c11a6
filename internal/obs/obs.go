// Package obs is FACC's observability layer: a hierarchical span tracer
// and a metrics registry (counters, gauges, fixed-bucket histograms) with
// pluggable exporters (JSON-lines, Chrome trace_event, human-readable
// summary). Every pipeline stage — parse, typecheck, classify, analysis,
// binding enumeration, per-candidate IO fuzzing, range-check synthesis,
// codegen — reports through it, and the evaluation harness derives its
// timing figures (Fig. 15) from the same spans, so the experiments and
// the observability layer are one code path.
//
// Everything is nil-safe: a nil *Tracer, *Span, *Registry, *Counter,
// *Gauge or *Histogram is a no-op receiver, so instrumented hot paths pay
// nothing (no allocations, no branches beyond the nil check) when tracing
// is disabled. Stdlib only.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// AttrKind discriminates attribute values.
type AttrKind uint8

// Attribute kinds.
const (
	AttrInt AttrKind = iota
	AttrFloat
	AttrString
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key  string
	Kind AttrKind
	I    int64
	F    float64
	S    string
}

// Value returns the attribute value as an interface (for export).
func (a Attr) Value() any {
	switch a.Kind {
	case AttrFloat:
		return a.F
	case AttrString:
		return a.S
	default:
		return a.I
	}
}

// Tracer collects spans and owns a metrics registry. It is safe for
// concurrent use: independent goroutines may open and end spans on the
// same tracer (the evaluation harness fans compilations out across
// workers against one tracer).
//
// Completed spans are indexed by trace ID. A process that serves
// requests holds a request's trace while it needs the spans and releases
// it when done: a trace's spans are dropped once its last hold is
// released. Spans of a trace nobody holds stay for the tracer's
// lifetime, which is what a CLI run or a library caller keeps.
type Tracer struct {
	wall   time.Time // wall-clock anchor; span offsets are monotonic
	nextID atomic.Int64

	mu     sync.Mutex
	ended  int                   // spans ended since New, released ones included
	traces map[string]*spanTrace // completed spans by trace ID; "" holds untraced ones
	active map[int64]*Span       // started but not yet ended

	reg *Registry
}

// spanTrace is one trace's completed spans and the holds keeping them.
type spanTrace struct {
	spans []*Span // in End order
	holds int
}

// New returns an empty tracer anchored at the current instant. The anchor
// carries both the wall clock (for absolute timestamps in exports) and
// the monotonic clock (for durations).
func New() *Tracer {
	return &Tracer{wall: time.Now(), reg: NewRegistry(),
		traces: map[string]*spanTrace{}, active: map[int64]*Span{}}
}

// Metrics returns the tracer's metrics registry (nil on a nil tracer, so
// chained counter/histogram calls degrade to no-ops).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Start returns the tracer's wall-clock anchor.
func (t *Tracer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.wall
}

// Span opens a new root span. End() must be called to record it.
func (t *Tracer) Span(name string) *Span {
	if t == nil {
		return nil
	}
	s := t.newSpan(name)
	s.Root = s.ID
	t.register(s)
	return s
}

// newSpan builds an unregistered span; the caller fixes Par/Root and then
// registers it, so the live-span table never holds half-initialized spans.
func (t *Tracer) newSpan(name string) *Span {
	id := t.nextID.Add(1)
	return &Span{
		tr:    t,
		ID:    id,
		Name:  name,
		Start: time.Since(t.wall),
	}
}

func (t *Tracer) register(s *Span) {
	t.mu.Lock()
	t.active[s.ID] = s
	t.mu.Unlock()
}

// ActiveSpan is a point-in-time view of a started-but-unfinished span.
// Only creation-time fields appear: attributes may still be chained by the
// owning goroutine, so they are deliberately absent.
type ActiveSpan struct {
	ID    int64
	Par   int64
	Root  int64
	Name  string
	Start time.Duration // offset from the tracer anchor
}

// Active snapshots the spans that have been started but not ended, in
// start order — the tracer's answer to "what is the pipeline doing right
// now". Safe to call concurrently with span creation and End.
func (t *Tracer) Active() []ActiveSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]ActiveSpan, 0, len(t.active))
	for _, s := range t.active {
		out = append(out, ActiveSpan{ID: s.ID, Par: s.Par, Root: s.Root,
			Name: s.Name, Start: s.Start})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumSpans returns the number of spans ended since the tracer started,
// released ones included.
func (t *Tracer) NumSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ended
}

// Spans returns a snapshot of the completed spans the tracer holds, in
// End order.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	n := 0
	for _, tc := range t.traces {
		n += len(tc.spans)
	}
	out := make([]*Span, 0, n)
	for _, tc := range t.traces {
		out = append(out, tc.spans...)
	}
	merged := len(t.traces) > 1
	t.mu.Unlock()
	if merged {
		sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	}
	return out
}

// TraceSpans returns the completed spans stamped with the given trace ID,
// in End order — the span tree of one request, for flight records.
func (t *Tracer) TraceSpans(trace string) []*Span {
	if t == nil || trace == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tc := t.traces[trace]; tc != nil {
		return append([]*Span(nil), tc.spans...)
	}
	return nil
}

// Hold keeps the spans completed under trace until a matching Release.
// Nil-safe; an empty trace is never held.
func (t *Tracer) Hold(trace string) {
	if t == nil || trace == "" {
		return
	}
	t.mu.Lock()
	t.trace(trace).holds++
	t.mu.Unlock()
}

// Release lets go of one hold on trace; when none is left, the spans
// completed under it are dropped. A trace nobody holds is left alone.
// Nil-safe.
func (t *Tracer) Release(trace string) {
	if t == nil || trace == "" {
		return
	}
	t.mu.Lock()
	if tc := t.traces[trace]; tc != nil && tc.holds > 0 {
		if tc.holds--; tc.holds == 0 {
			delete(t.traces, trace)
		}
	}
	t.mu.Unlock()
}

// trace returns the entry of a trace ID, making it on first use. The
// caller holds t.mu.
func (t *Tracer) trace(id string) *spanTrace {
	tc := t.traces[id]
	if tc == nil {
		tc = &spanTrace{}
		t.traces[id] = tc
	}
	return tc
}

// Find returns the completed spans with the given name.
func (t *Tracer) Find(name string) []*Span {
	var out []*Span
	for _, s := range t.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Span is one timed pipeline stage. Fields are fixed at End(); a span must
// be ended by the goroutine that uses it (the tracer may be shared, a
// single span may not).
type Span struct {
	tr    *Tracer
	ID    int64
	Par   int64 // parent span ID; 0 for roots
	Root  int64 // top-level ancestor ID (one exporter lane per root)
	Trace string
	Name  string
	Start time.Duration // offset from the tracer anchor
	Dur   time.Duration // set by End
	Attrs []Attr
	ended bool
	seq   int // End order across the tracer, set by End
}

// Child opens a sub-span. Nil-safe: a nil receiver returns a nil span.
// The child inherits the parent's trace ID.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.tr.newSpan(name)
	c.Par = s.ID
	c.Root = s.Root
	c.Trace = s.Trace
	s.tr.register(c)
	return c
}

// SetTrace stamps the span with a request trace ID; children opened after
// this call inherit it. Chainable and nil-safe.
func (s *Span) SetTrace(id string) *Span {
	if s == nil {
		return nil
	}
	s.Trace = id
	return s
}

// Tracer returns the owning tracer (nil on a nil span).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// Metrics returns the owning tracer's registry (nil on a nil span).
func (s *Span) Metrics() *Registry {
	if s == nil {
		return nil
	}
	return s.tr.reg
}

// Int attaches an integer attribute. Chainable and nil-safe.
func (s *Span) Int(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Kind: AttrInt, I: v})
	return s
}

// Float attaches a float attribute. Chainable and nil-safe.
func (s *Span) Float(key string, v float64) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Kind: AttrFloat, F: v})
	return s
}

// Str attaches a string attribute. Chainable and nil-safe.
func (s *Span) Str(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Kind: AttrString, S: v})
	return s
}

// Attr returns the value of the named attribute, or nil.
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value()
		}
	}
	return nil
}

// WallStart returns the span's absolute wall-clock start.
func (s *Span) WallStart() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.tr.wall.Add(s.Start)
}

// End closes the span, records it on the tracer, feeds the stage-latency
// histogram, and returns the span's duration. Idempotent; zero on a nil
// span — callers use the return value as the stage's elapsed time.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	if s.ended {
		return s.Dur
	}
	t := s.tr
	s.ended = true
	s.Dur = time.Since(t.wall) - s.Start
	t.mu.Lock()
	delete(t.active, s.ID)
	t.ended++
	s.seq = t.ended
	tc := t.trace(s.Trace)
	tc.spans = append(tc.spans, s)
	t.mu.Unlock()
	t.reg.Histogram("stage."+s.Name+".ms", DurationBucketsMs).
		Observe(float64(s.Dur) / float64(time.Millisecond))
	return s.Dur
}
