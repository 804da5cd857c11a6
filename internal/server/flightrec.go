// The SLO flight recorder: a bounded in-memory record of the requests
// that matter when the pager goes off — the slowest and the failed. A
// finishing job offers only its identity and outcome; /debug/requests
// joins each retained record by trace ID to its span tree and candidate
// events, with their cost and search folds, when it is read, so the job
// path never scans the daemon's history. A retained record keeps its
// trace's spans and events held until the recorder evicts it. The trace
// ID also joins a record to the latency exemplars in /metrics.
package server

import (
	"slices"
	"sort"
	"sync"

	"facc/internal/obs"
)

// SpanRecord is one span of a retained request, flattened for JSON.
type SpanRecord struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUs float64        `json:"start_us"`
	DurUs   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// RequestRecord is one retained request: identity, outcome, and its
// trace-scoped spans and candidate events with their cost and search
// folds, which /debug/requests fills by trace ID as it reads the record.
type RequestRecord struct {
	Trace     string  `json:"trace"`
	JobID     string  `json:"job_id"`
	Digest    string  `json:"digest"`
	Target    string  `json:"target"`
	State     string  `json:"state"`
	Err       string  `json:"error,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
	// SLOViolation marks a request that blew the latency target or
	// failed outright — the events the burn rate counts.
	SLOViolation bool `json:"slo_violation"`

	Spans  []SpanRecord `json:"spans,omitempty"`
	Events []obs.Event  `json:"events,omitempty"`
	// Costs and Search fold Events: the request's cost ledger per
	// target and its search-observatory summary.
	Costs  *obs.CostSummary   `json:"costs,omitempty"`
	Search *obs.SearchSummary `json:"search,omitempty"`
}

// FlightRecorder retains the N slowest and the N most recent failed
// requests. Bounded: memory stays flat no matter how long the daemon
// runs. Nil-safe: a nil recorder drops everything.
type FlightRecorder struct {
	cap int

	mu      sync.Mutex
	slowest []*RequestRecord // sorted by LatencyMS descending, ≤ cap
	failed  []*RequestRecord // ring of failed requests, oldest first, ≤ cap
}

// NewFlightRecorder returns a recorder retaining up to n requests per
// class (slowest / failed). n <= 0 gets the default of 32.
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 32
	}
	return &FlightRecorder{cap: n}
}

// Observe offers one finished request. Failed requests always enter the
// failure ring (evicting the oldest); every request competes for the
// slowest list. It reports whether the recorder kept rec and which
// records it dropped from both classes to make room.
func (f *FlightRecorder) Observe(rec *RequestRecord) (kept bool, evicted []*RequestRecord) {
	if f == nil || rec == nil {
		return false, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*RequestRecord
	if rec.State == string(Failed) {
		kept = true
		f.failed = append(f.failed, rec)
		if len(f.failed) > f.cap {
			out = append(out, f.failed[0])
			f.failed = f.failed[1:]
		}
	}
	slow := len(f.slowest) < f.cap
	if slow {
		f.slowest = append(f.slowest, rec)
	} else if last := f.slowest[len(f.slowest)-1]; rec.LatencyMS > last.LatencyMS {
		slow = true
		out = append(out, last)
		f.slowest[len(f.slowest)-1] = rec
	}
	if slow {
		kept = true
		sort.SliceStable(f.slowest, func(i, j int) bool {
			return f.slowest[i].LatencyMS > f.slowest[j].LatencyMS
		})
	}
	// A record can leave both classes at once; it is evicted once.
	for _, r := range out {
		if !f.holds(r) && !slices.Contains(evicted, r) {
			evicted = append(evicted, r)
		}
	}
	return kept, evicted
}

// holds reports whether either class still holds rec. The caller holds
// f.mu.
func (f *FlightRecorder) holds(rec *RequestRecord) bool {
	return slices.Contains(f.slowest, rec) || slices.Contains(f.failed, rec)
}

// Records snapshots both retention classes.
func (f *FlightRecorder) Records() (slowest, failed []*RequestRecord) {
	if f == nil {
		return nil, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	slowest = append([]*RequestRecord(nil), f.slowest...)
	failed = append([]*RequestRecord(nil), f.failed...)
	return slowest, failed
}

// Len returns (slowest, failed) retention counts.
func (f *FlightRecorder) Len() (int, int) {
	if f == nil {
		return 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.slowest), len(f.failed)
}

// spanRecords flattens a request's span tree for retention.
func spanRecords(spans []*obs.Span) []SpanRecord {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanRecord, 0, len(spans))
	for _, sp := range spans {
		rec := SpanRecord{
			ID:      sp.ID,
			Parent:  sp.Par,
			Name:    sp.Name,
			StartUs: float64(sp.Start.Microseconds()),
			DurUs:   float64(sp.Dur.Microseconds()),
		}
		if len(sp.Attrs) > 0 {
			rec.Attrs = make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				rec.Attrs[a.Key] = a.Value()
			}
		}
		out = append(out, rec)
	}
	return out
}
