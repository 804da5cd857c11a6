package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"facc"
	"facc/internal/obs"
	"facc/internal/server"
)

// ForwardedHeader carries the hop count of a relayed compile request.
// Replicas trust it (the fleet is an internal mesh); a request whose
// count exceeds maxHops is rejected as a routing loop — ring views can
// disagree for a probe interval after a peer dies, and the guard turns a
// potential forwarding orbit into a fast, retryable error.
const ForwardedHeader = "X-Facc-Forwarded"

// maxHops bounds relay chains: a request arriving with X-Facc-Forwarded
// above it is rejected with 508.
const maxHops = 3

// PeerHeader is stamped on relayed responses with the replica ID that
// actually served the request, so a client holding a /jobs/{id} URL
// knows which replica it lives on.
const PeerHeader = "X-Facc-Peer"

// Config assembles a fleet Node around one local compile server.
type Config struct {
	// Self is this replica's peer ID. It normally appears in Peers; a
	// node whose ID is absent from the table is a pure router that owns
	// no shard range (it forwards everything and synthesizes locally
	// only as a last resort).
	Self string
	// Peers maps peer ID to base URL ("http://host:port"). The table is
	// static per process — flags or a config file — with health as the
	// only dynamic part; a dead peer is ejected from the ring, not from
	// the table, so it can come back.
	Peers map[string]string
	// Local is the wrapped single-node compile server (required).
	Local *server.Server
	// LocalHandler overrides Local.Handler() (tests).
	LocalHandler http.Handler
	// Tracer supplies the metrics registry and forward spans; it should
	// be the same tracer the local server uses, so /status and /metrics
	// show one process. Required (New creates one when nil).
	Tracer *obs.Tracer
	// Transport carries forwards and health probes. The chaos harness
	// injects partitions here. Default http.DefaultTransport.
	Transport http.RoundTripper

	// ProbeInterval is the health-probe period (default 1s). Rebalance
	// after a peer death completes within FailureThreshold intervals.
	ProbeInterval time.Duration
	// FailureThreshold is the consecutive-failure count (probe misses +
	// forward errors) that ejects a peer from the ring (default 3).
	FailureThreshold int
	// ForwardTimeout bounds one forwarded request (default 2m, matching
	// the local request timeout's order of magnitude).
	ForwardTimeout time.Duration
}

// Node is one fleet replica: the local compile server plus the ring,
// health view and forwarding. Create with New, expose Handler, stop with
// Close.
type Node struct {
	cfg   Config
	reg   *obs.Registry
	ring  *Ring
	local http.Handler

	breakers map[string]*peerBreaker
	peerIDs  []string // sorted table order, for stable snapshots

	client *http.Client
	prober *prober

	closeOnce sync.Once
}

// New builds the node and starts its health prober.
func New(cfg Config) *Node {
	if cfg.Tracer == nil {
		cfg.Tracer = obs.New()
	}
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 2 * time.Minute
	}

	ids := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	n := &Node{
		cfg:      cfg,
		reg:      cfg.Tracer.Metrics(),
		ring:     NewRing(ids),
		breakers: map[string]*peerBreaker{},
		peerIDs:  ids,
		client:   &http.Client{Transport: cfg.Transport},
	}
	n.local = cfg.LocalHandler
	if n.local == nil && cfg.Local != nil {
		n.local = cfg.Local.Handler()
	}
	for _, id := range ids {
		if id == cfg.Self {
			continue
		}
		n.breakers[id] = &peerBreaker{id: id, threshold: cfg.FailureThreshold, healthy: true}
		n.reg.Gauge("fleet.peer_healthy." + id).Set(1)
	}
	n.reg.Gauge("fleet.peers").Set(float64(len(ids)))
	n.reg.Gauge("fleet.peers_healthy").Set(float64(n.ring.Healthy()))

	n.prober = newProber(n, cfg.ProbeInterval)
	go n.prober.run()
	return n
}

// Close stops the health prober. The wrapped server is not drained —
// the owner does that (the shutdown order is: stop admitting at the
// fleet layer by closing listeners, then drain the local server).
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.prober.stop)
		<-n.prober.done
	})
}

// Ring exposes the live ring (tests, the chaos harness).
func (n *Node) Ring() *Ring { return n.ring }

// Handler returns the fleet mux: compile routing and fleet introspection
// layered over the local server's handler.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", n.handleCompile)
	mux.HandleFunc("/readyz", n.handleReadyz)
	mux.HandleFunc("/fleet/peers", n.handlePeers)
	mux.HandleFunc("/fleet/owners", n.handleOwners)
	mux.Handle("/", n.local)
	return mux
}

// handlePeers serves the node's live fleet view.
func (n *Node) handlePeers(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(n.Snapshot())
}

// handleOwners answers "which replicas own this key" — the smoke test's
// and operators' view into the ring. ?key= takes a raw digest.
func (n *Node) handleOwners(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing ?key=<digest>", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{
		"key":    key,
		"owners": n.ring.Owners(key, 0),
		"self":   n.cfg.Self,
	})
}

// handleReadyz is the fleet-aware readiness check. Beyond the local
// server's drain state, the node reports not-ready while the live ring
// is empty: with zero healthy peers covering the shard ranges the node
// could only shed or degrade every request, and a load balancer should
// stop routing to it. (A node that is itself a healthy table member
// keeps the ring non-empty, so this fires for router-style nodes and
// for draining replicas whose peers are all gone.)
func (n *Node) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if len(n.cfg.Peers) > 0 && n.servingPeers() == 0 {
		n.reg.Counter("fleet.readyz_no_peers").Inc()
		http.Error(w, "fleet: no healthy peers for any shard range", http.StatusServiceUnavailable)
		return
	}
	n.local.ServeHTTP(w, r)
}

// servingPeers counts live-ring members that can actually take work:
// self stops counting while the local server drains.
func (n *Node) servingPeers() int {
	healthy := n.ring.Healthy()
	if n.ring.IsHealthy(n.cfg.Self) && n.cfg.Local != nil && n.cfg.Local.Draining() {
		healthy--
	}
	return healthy
}

// serveLocal replays the buffered request into the wrapped server.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte, trace string) {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	if trace != "" {
		r2.Header.Set("X-Facc-Trace", trace)
	}
	n.reg.Counter("fleet.handled_local").Inc()
	n.local.ServeHTTP(w, r2)
}

// handleCompile is the fleet's routing front door: hop guard → digest →
// ring lookup → local, forward, or degraded local synthesis.
func (n *Node) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a JSON compile request", http.StatusMethodNotAllowed)
		return
	}
	hops := 0
	if h := r.Header.Get(ForwardedHeader); h != "" {
		v, err := strconv.Atoi(h)
		if err != nil || v < 0 {
			http.Error(w, "malformed "+ForwardedHeader+" header", http.StatusBadRequest)
			return
		}
		hops = v
	}
	if hops > maxHops {
		n.reg.Counter("fleet.loop_rejected").Inc()
		http.Error(w, fmt.Sprintf("fleet: forwarding loop (%d hops > max %d)", hops, maxHops),
			http.StatusLoopDetected)
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxRequestBytes))
	if err != nil {
		server.BadBody(w, err)
		return
	}
	trace := r.Header.Get("X-Facc-Trace")
	if !obs.ValidTraceID(trace) {
		trace = obs.NewTraceID()
	}
	// What the entry records under the trace (its forward spans) lives
	// as long as the request here: a relayed request leaves nothing
	// behind, and one served locally leaves its spans to the local job,
	// which holds the trace from admission.
	n.cfg.Tracer.Hold(trace)
	defer n.cfg.Tracer.Release(trace)

	var req facc.CompileRequest
	if err := json.Unmarshal(body, &req); err != nil || req.Validate() != nil {
		// Malformed or invalid requests never travel: the local server
		// produces the canonical 400 without spending a hop.
		n.serveLocal(w, r, body, trace)
		return
	}
	owners := n.ring.Owners(req.Digest(), 0)

	// Walk the failover chain: forward to each remote owner before self;
	// reaching self (or exhausting the chain) means synthesize here.
	degraded := len(owners) > 0 && owners[0] != n.cfg.Self
	for _, peer := range owners {
		if peer == n.cfg.Self {
			degraded = false
			break
		}
		if n.forward(w, r, body, peer, hops, trace) {
			return
		}
		n.reg.Counter("fleet.forward_failovers").Inc()
	}
	if degraded {
		// Every remote owner was unreachable: digest affinity is lost
		// for this request, correctness is not — synthesize locally.
		n.reg.Counter("fleet.degraded_local").Inc()
	}
	if hops > 0 {
		n.reg.Counter("fleet.forwarded_in").Inc()
	}
	n.serveLocal(w, r, body, trace)
}

// forward relays one compile request to a peer in a single POST. It
// reports true when a response has been written; false means the caller
// should fail over to the next owner. A lost forward is not retried on
// the same peer: the next owner can compile the digest, and adapters are
// deterministic, so failing over costs at most a recompile.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, body []byte, peer string, hops int, trace string) bool {
	base, ok := n.cfg.Peers[peer]
	if !ok || !n.ring.IsHealthy(peer) {
		return false
	}
	span := n.cfg.Tracer.Span("fleet.forward").SetTrace(trace).Str("peer", peer)
	defer span.End()

	ctx, cancel := context.WithTimeout(r.Context(), n.cfg.ForwardTimeout)
	defer cancel()
	freq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/compile?"+r.URL.RawQuery, bytes.NewReader(body))
	if err != nil {
		return false
	}
	freq.Header.Set("Content-Type", "application/json")
	freq.Header.Set("X-Facc-Trace", trace)
	freq.Header.Set(ForwardedHeader, strconv.Itoa(hops+1))
	resp, err := n.client.Do(freq)
	var reply []byte
	if err == nil {
		// Read the whole reply before writing any of it: an owner that
		// dies mid-response then costs a failover, never a truncated 200.
		reply, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		// A transport-level failure is evidence about the peer; let the
		// breaker eject it before the next probe tick if this keeps
		// happening.
		n.reportPeer(peer, false)
		return r.Context().Err() != nil // client gone; nothing left to write
	}
	switch resp.StatusCode {
	case http.StatusServiceUnavailable, http.StatusLoopDetected:
		// Draining or ring disagreement: the peer is alive but not
		// usable for this request — fail over.
		span.Str("via", "failover")
		return false
	}
	// Everything else — including a 429 whose Retry-After must reach the
	// client exactly as the owner computed it — is relayed.
	n.reportPeer(peer, true)
	n.reg.Counter("fleet.forwarded").Inc()
	n.relay(w, resp, reply, peer)
	return true
}

// relayHeaders are the response headers a forwarded reply keeps. The
// owner's Retry-After rides through verbatim: the forwarder's own queue
// EMA knows nothing about the owner's backlog, so re-deriving the hint
// here would tell shed clients to come back at the wrong time.
var relayHeaders = []string{
	"Content-Type", "Retry-After", "Location",
	"X-Facc-Trace", "X-Facc-Cache", "X-Facc-Dedup",
}

// relay writes a forwarded response and its read body through,
// stamping which replica served it.
func (n *Node) relay(w http.ResponseWriter, resp *http.Response, body []byte, peer string) {
	for _, h := range relayHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(PeerHeader, peer)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}
