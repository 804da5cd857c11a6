package fleet

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// peerBreaker is the health circuit for one remote peer, in the same
// spirit as the store's faultinject.IOBreaker but judging a network
// neighbour instead of a disk: consecutive failures (probe misses and forwarding
// errors both count) past Threshold eject the peer from the ring — the
// open state — and every forward skips it. The background prober keeps
// probing an ejected peer; a successful probe is the half-open trial
// that re-admits it. There is no separate half-open bookkeeping because
// the prober is the only caller that ever touches an open peer.
type peerBreaker struct {
	id        string
	threshold int

	mu      sync.Mutex
	fails   int
	healthy bool
}

// report folds one success/failure observation in and returns the new
// health plus whether it changed.
func (b *peerBreaker) report(ok bool) (healthy, changed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	was := b.healthy
	if ok {
		b.fails = 0
		b.healthy = true
	} else {
		b.fails++
		if b.fails >= b.threshold {
			b.healthy = false
		}
	}
	return b.healthy, b.healthy != was
}

// state snapshots the breaker.
func (b *peerBreaker) state() (healthy bool, fails int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy, b.fails
}

// prober periodically GETs every remote peer's /healthz through the
// node's transport and feeds the verdicts into the per-peer breakers.
// It is the fleet's rebalance clock: a killed replica is ejected within
// FailureThreshold probe intervals even if no request happens to trip
// over it first, and a recovered one is re-admitted by the next probe.
type prober struct {
	node     *Node
	interval time.Duration
	client   *http.Client

	stop chan struct{}
	done chan struct{}
}

func newProber(n *Node, interval time.Duration) *prober {
	timeout := interval / 2
	if timeout <= 0 {
		timeout = 100 * time.Millisecond
	}
	return &prober{
		node:     n,
		interval: interval,
		client:   &http.Client{Transport: n.cfg.Transport, Timeout: timeout},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

func (p *prober) run() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		// Probe first, then wait: a fresh node learns its peers' health
		// one interval earlier, which is exactly the window the fleet
		// bench measures rebalance inside of.
		p.probeAll()
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
	}
}

// probeAll probes every remote peer concurrently and waits for the round
// to finish, so one hung peer delays only its own verdict (the client
// timeout bounds it), not the ticker.
func (p *prober) probeAll() {
	var wg sync.WaitGroup
	for id, base := range p.node.cfg.Peers {
		if id == p.node.cfg.Self {
			continue
		}
		wg.Add(1)
		go func(id, base string) {
			defer wg.Done()
			p.node.reportPeer(id, p.probe(base))
		}(id, base)
	}
	wg.Wait()
}

// probe is one liveness check: a 2xx /healthz within the timeout.
func (p *prober) probe(base string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), p.client.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	res, err := p.client.Do(req)
	if err != nil {
		return false
	}
	res.Body.Close()
	return res.StatusCode >= 200 && res.StatusCode < 300
}

// reportPeer feeds one observation about a remote peer into its breaker
// and, on a state change, rebalances the ring and updates the health
// gauges. Forward failures and probe results share this path, so a dead
// peer is ejected by whichever notices first.
func (n *Node) reportPeer(id string, ok bool) {
	b := n.breakers[id]
	if b == nil {
		return
	}
	healthy, changed := b.report(ok)
	if !changed {
		return
	}
	n.ring.SetHealth(id, healthy)
	if healthy {
		n.reg.Counter("fleet.peer_recoveries").Inc()
	} else {
		n.reg.Counter("fleet.peer_ejections").Inc()
	}
	n.reg.Gauge("fleet.peer_healthy." + id).Set(boolGauge(healthy))
	n.reg.Gauge("fleet.peers_healthy").Set(float64(n.ring.Healthy()))
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// PeerHealth is one row of the fleet health snapshot.
type PeerHealth struct {
	ID      string `json:"id"`
	URL     string `json:"url,omitempty"`
	Self    bool   `json:"self,omitempty"`
	Healthy bool   `json:"healthy"`
	Fails   int    `json:"consecutive_fails,omitempty"`
}

// Snapshot is the node's live view of the fleet, served at /fleet/peers
// and consumed by tests and the chaos harness.
type Snapshot struct {
	Self    string       `json:"self"`
	Healthy int          `json:"healthy"`
	Peers   []PeerHealth `json:"peers"`
}

// Snapshot returns the node's current fleet view.
func (n *Node) Snapshot() Snapshot {
	s := Snapshot{Self: n.cfg.Self, Healthy: n.ring.Healthy()}
	for _, id := range n.peerIDs {
		ph := PeerHealth{ID: id, URL: n.cfg.Peers[id], Self: id == n.cfg.Self}
		if b := n.breakers[id]; b != nil {
			ph.Healthy, ph.Fails = b.state()
		} else {
			ph.Healthy = n.ring.IsHealthy(id)
		}
		s.Peers = append(s.Peers, ph)
	}
	return s
}
