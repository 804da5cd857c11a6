package fleet

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// LinkRule is the injected fault profile for every connection to one
// destination host:port. The zero rule is a clean link.
type LinkRule struct {
	// Down drops every request — a hard partition or a dead process.
	Down bool
	// LossRate drops requests with this probability — a lossy link.
	// Drawn from the transport's seeded stream, so a given (seed, call
	// sequence) is reproducible.
	LossRate float64
	// Latency stalls each surviving request by this much before sending
	// (applied with probability LatencyRate; LatencyRate 0 with a
	// nonzero Latency means every request).
	Latency     time.Duration
	LatencyRate float64
}

// PartitionError marks a request dropped by the fault transport, so
// callers (and tests) can tell injected network failures from real ones.
type PartitionError struct {
	Host string
	Kind string // "down" or "loss"
}

func (e *PartitionError) Error() string {
	return fmt.Sprintf("fleet: injected %s to %s", e.Kind, e.Host)
}

// FaultTransport is an http.RoundTripper that injects partitions, loss
// and latency per destination host — the in-process stand-in for a bad
// network between replicas. The chaos serve bench points every node's
// forwarding client and health prober through one FaultTransport and
// then kills and partitions links mid-run; unit tests use it to simulate
// peer death without binding sockets that refuse connections slowly.
//
// Deterministic for a fixed seed and call sequence.
type FaultTransport struct {
	base  http.RoundTripper
	sleep func(time.Duration)

	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string]LinkRule
}

// NewFaultTransport wraps base (nil means http.DefaultTransport) with an
// initially clean rule set; seed fixes the loss stream (0 means 1).
func NewFaultTransport(base http.RoundTripper, seed int64) *FaultTransport {
	if base == nil {
		base = http.DefaultTransport
	}
	if seed == 0 {
		seed = 1
	}
	return &FaultTransport{
		base:  base,
		sleep: time.Sleep,
		rng:   rand.New(rand.NewSource(seed)),
		rules: map[string]LinkRule{},
	}
}

// SetRule installs (or, with a zero rule, clears) the fault profile for
// one destination host:port.
func (t *FaultTransport) SetRule(host string, r LinkRule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r == (LinkRule{}) {
		delete(t.rules, host)
		return
	}
	t.rules[host] = r
}

// RoundTrip applies the destination's rule, then forwards to the base
// transport.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	t.mu.Lock()
	rule := t.rules[host]
	drop := false
	if rule.LossRate > 0 {
		drop = t.rng.Float64() < rule.LossRate
	}
	stall := rule.Latency > 0
	if stall && rule.LatencyRate > 0 {
		stall = t.rng.Float64() < rule.LatencyRate
	}
	t.mu.Unlock()

	if rule.Down {
		return nil, &PartitionError{Host: host, Kind: "down"}
	}
	if drop {
		return nil, &PartitionError{Host: host, Kind: "loss"}
	}
	if stall {
		t.sleep(rule.Latency)
	}
	return t.base.RoundTrip(req)
}
