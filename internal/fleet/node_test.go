package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"facc"
	"facc/internal/obs"
	"facc/internal/server"
	"facc/internal/store"
)

// countingCompile is the test CompileFunc: it counts calls, optionally
// parks on a gate, records the trace ID it ran under, and produces a
// deterministic adapter from the source — so adapters from different
// replicas are byte-comparable.
type countingCompile struct {
	mu      sync.Mutex
	calls   int
	traces  []string
	entered chan struct{}
	release chan struct{} // nil means never park
}

func (c *countingCompile) compile(ctx context.Context, req facc.CompileRequest) (server.CompileResult, error) {
	c.mu.Lock()
	c.calls++
	c.traces = append(c.traces, obs.TraceIDFrom(ctx))
	release := c.release
	c.mu.Unlock()
	if c.entered != nil {
		c.entered <- struct{}{}
	}
	if release != nil {
		select {
		case <-release:
		case <-ctx.Done():
			return server.CompileResult{}, ctx.Err()
		}
	}
	return server.CompileResult{AdapterC: "/* adapter */ " + req.Source, Function: "fft"}, nil
}

func (c *countingCompile) callCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func (c *countingCompile) sawTrace(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.traces {
		if t == id {
			return true
		}
	}
	return false
}

// testNode is one in-process replica: fleet node + wrapped compile
// server + its own observability stack, listening on a real socket.
type testNode struct {
	id      string
	url     string
	host    string
	node    *Node
	srv     *server.Server
	tracer  *obs.Tracer
	events  *obs.Events
	compile *countingCompile
	ts      *httptest.Server
}

// newTestFleet builds n replicas (IDs n0..n{n-1}) that all share the
// fault transport and a common static peer table. mutate, when non-nil,
// tweaks each node's configs before construction.
func newTestFleet(t *testing.T, n int, tr *FaultTransport, mutate func(i int, fc *Config, sc *server.Config)) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	peers := map[string]string{}
	for i := 0; i < n; i++ {
		ts := httptest.NewUnstartedServer(nil)
		id := fmt.Sprintf("n%d", i)
		url := "http://" + ts.Listener.Addr().String()
		nodes[i] = &testNode{id: id, url: url, host: ts.Listener.Addr().String(), ts: ts}
		peers[id] = url
	}
	for i, tn := range nodes {
		tn.tracer = obs.New()
		tn.events = obs.NewEvents()
		tn.compile = &countingCompile{}
		sc := server.Config{
			QueueDepth:     16,
			Workers:        2,
			RequestTimeout: 10 * time.Second,
			Tracer:         tn.tracer,
			Events:         tn.events,
			Compile:        tn.compile.compile,
		}
		fc := Config{
			Self:             tn.id,
			Peers:            peers,
			Tracer:           tn.tracer,
			Transport:        tr,
			ProbeInterval:    25 * time.Millisecond,
			FailureThreshold: 2,
		}
		if mutate != nil {
			mutate(i, &fc, &sc)
		}
		tn.srv = server.New(sc)
		fc.Local = tn.srv
		tn.node = New(fc)
		tn.ts.Config.Handler = tn.node.Handler()
		tn.ts.Start()
		t.Cleanup(func() {
			tn.node.Close()
			tn.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			tn.srv.Drain(ctx)
			cancel()
		})
	}
	return nodes
}

func fleetReq(src string) facc.CompileRequest {
	return facc.CompileRequest{Name: "t.c", Source: src, Target: "ffta"}
}

func postCompile(t *testing.T, url string, req facc.CompileRequest, query string, hdr map[string]string) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/compile"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// jobWire mirrors the server's job JSON for decoding.
type jobWire struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Key      string `json:"key"`
	Trace    string `json:"trace"`
	AdapterC string `json:"adapter_c"`
	Cached   bool   `json:"cached"`
}

func decodeWire(t *testing.T, resp *http.Response) jobWire {
	t.Helper()
	defer resp.Body.Close()
	var v jobWire
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// findNode returns the test node with the given peer ID.
func findNode(t *testing.T, nodes []*testNode, id string) *testNode {
	t.Helper()
	for _, tn := range nodes {
		if tn.id == id {
			return tn
		}
	}
	t.Fatalf("no node %q", id)
	return nil
}

// TestForwardToOwner: a request entering at a non-owner is forwarded to
// the digest's ring owner and compiled exactly once, there.
func TestForwardToOwner(t *testing.T) {
	tr := NewFaultTransport(nil, 1)
	nodes := newTestFleet(t, 3, tr, nil)

	req := fleetReq("int fft(int x) { return x; }")
	key := req.Digest()
	owner := nodes[0].node.Ring().Owner(key)
	var entry *testNode
	for _, tn := range nodes {
		if tn.id != owner {
			entry = tn
			break
		}
	}

	resp := postCompile(t, entry.url, req, "?wait=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(PeerHeader); got != owner {
		t.Fatalf("%s = %q, want owner %q", PeerHeader, got, owner)
	}
	job := decodeWire(t, resp)
	if job.State != "done" || !strings.Contains(job.AdapterC, "adapter") {
		t.Fatalf("job = %+v, want done with adapter", job)
	}
	for _, tn := range nodes {
		want := 0
		if tn.id == owner {
			want = 1
		}
		if got := tn.compile.callCount(); got != want {
			t.Errorf("node %s compiled %d times, want %d", tn.id, got, want)
		}
	}
	if v := entry.tracer.Metrics().Counter("fleet.forwarded").Value(); v != 1 {
		t.Errorf("entry fleet.forwarded = %d, want 1", v)
	}
	ownerNode := findNode(t, nodes, owner)
	if v := ownerNode.tracer.Metrics().Counter("fleet.handled_local").Value(); v != 1 {
		t.Errorf("owner fleet.handled_local = %d, want 1", v)
	}
}

// TestRetryAfterPropagation (satellite): a forwarded 429 carries the
// owner's Retry-After verbatim — not one re-derived by the forwarder,
// whose own queue EMA knows nothing about the owner's backlog.
func TestRetryAfterPropagation(t *testing.T) {
	// The "owner" is a stub replica whose compile endpoint always sheds
	// with a distinctive Retry-After no healthy forwarder would derive.
	stub := http.NewServeMux()
	stub.HandleFunc("/compile", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "42")
		http.Error(w, "queue full: shedding", http.StatusTooManyRequests)
	})
	stub.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	ownerTS := httptest.NewServer(stub)
	defer ownerTS.Close()

	peers := map[string]string{"owner": ownerTS.URL}
	router := New(Config{
		Self:  "router", // not in the table: pure router, owner owns all keys
		Peers: peers,
		LocalHandler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t.Error("router compiled locally; request should have been forwarded")
			http.Error(w, "unexpected", http.StatusInternalServerError)
		}),
		ProbeInterval: time.Hour, // no probes needed; table starts healthy
	})
	defer router.Close()
	routerTS := httptest.NewServer(router.Handler())
	defer routerTS.Close()

	resp := postCompile(t, routerTS.URL, fleetReq("int f(int x) { return x; }"), "", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "42" {
		t.Fatalf("Retry-After = %q, want the owner's %q", got, "42")
	}
	if got := resp.Header.Get(PeerHeader); got != "owner" {
		t.Fatalf("%s = %q, want %q", PeerHeader, got, "owner")
	}
}

// TestForwardTornReplyFailsOver: an owner that dies after sending its
// reply's headers but before the whole body costs a failover — here to
// degraded local synthesis — never a truncated 200 relayed to the client.
func TestForwardTornReplyFailsOver(t *testing.T) {
	stub := http.NewServeMux()
	stub.HandleFunc("/compile", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "1000")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"state": "done", "adapter_c": "/* torn`)
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // drop the connection mid-body
	})
	stub.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	ownerTS := httptest.NewServer(stub)
	defer ownerTS.Close()

	const local = `{"state": "done", "adapter_c": "/* local */"}`
	router := New(Config{
		Self:  "router", // not in the table: the owner owns all keys
		Peers: map[string]string{"owner": ownerTS.URL},
		LocalHandler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, local)
		}),
		ProbeInterval: time.Hour, // no probes needed; table starts healthy
	})
	defer router.Close()
	routerTS := httptest.NewServer(router.Handler())
	defer routerTS.Close()

	resp := postCompile(t, routerTS.URL, fleetReq("int f(int x) { return x; }"), "?wait=1", nil)
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the reply: %v", err)
	}
	if resp.StatusCode != http.StatusOK || string(got) != local {
		t.Fatalf("status %d body %q, want 200 and the local reply %q", resp.StatusCode, got, local)
	}
	for name, want := range map[string]int64{"fleet.forward_failovers": 1, "fleet.degraded_local": 1, "fleet.forwarded": 0} {
		if v := router.reg.Counter(name).Value(); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
}

// TestLoopGuard (satellite): a hop count above maxHops is rejected with
// 508, and a malformed hop header with 400 — loops die fast instead of
// orbiting the ring.
func TestLoopGuard(t *testing.T) {
	tr := NewFaultTransport(nil, 1)
	nodes := newTestFleet(t, 1, tr, nil)

	resp := postCompile(t, nodes[0].url, fleetReq("int f(int x) { return x; }"), "",
		map[string]string{ForwardedHeader: "99"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusLoopDetected {
		t.Fatalf("hops=99: status = %d, want 508", resp.StatusCode)
	}
	if v := nodes[0].tracer.Metrics().Counter("fleet.loop_rejected").Value(); v != 1 {
		t.Fatalf("fleet.loop_rejected = %d, want 1", v)
	}

	resp = postCompile(t, nodes[0].url, fleetReq("int f(int x) { return x; }"), "",
		map[string]string{ForwardedHeader: "banana"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed hops: status = %d, want 400", resp.StatusCode)
	}

	if nodes[0].compile.callCount() != 0 {
		t.Fatal("rejected requests must not compile")
	}
}

// TestTracePropagationAcrossForward (satellite): one client-supplied
// trace ID joins the observability streams on BOTH replicas of a
// forwarded hop — the forward span on the entry node, and the compile
// span and candidate events on the owner.
func TestTracePropagationAcrossForward(t *testing.T) {
	tr := NewFaultTransport(nil, 1)
	nodes := newTestFleet(t, 2, tr, nil)

	req := fleetReq("int fft2(int x) { return x + 1; }")
	key := req.Digest()
	owner := nodes[0].node.Ring().Owner(key)
	ownerNode := findNode(t, nodes, owner)
	var entry *testNode
	for _, tn := range nodes {
		if tn.id != owner {
			entry = tn
		}
	}
	const trace = "fleet-trace-test-0001"
	resp := postCompile(t, entry.url, req, "?wait=1", map[string]string{"X-Facc-Trace": trace})
	job := decodeWire(t, resp)
	if resp.StatusCode != http.StatusOK || job.State != "done" {
		t.Fatalf("status=%d job=%+v, want 200/done", resp.StatusCode, job)
	}
	if job.Trace != trace {
		t.Fatalf("job trace = %q, want %q", job.Trace, trace)
	}
	if got := resp.Header.Get("X-Facc-Trace"); got != trace {
		t.Fatalf("response trace header = %q, want %q", got, trace)
	}

	// The owner's compile ran under the same trace ID.
	if !ownerNode.compile.sawTrace(trace) {
		t.Fatalf("owner compile did not see trace %q (saw %v)", trace, ownerNode.compile.traces)
	}
	// The entry node's forward span carries the trace and names the peer.
	spans := entry.tracer.TraceSpans(trace)
	foundForward := false
	for _, s := range spans {
		if s.Name == "fleet.forward" && s.Attr("peer") == owner {
			foundForward = true
		}
	}
	if !foundForward {
		t.Fatalf("entry node has no fleet.forward span under trace %q (have %d spans)", trace, len(spans))
	}
	// Events recorded under the trace on the owner join the same
	// stream: write a fuzz verdict the way the pipeline would, scoped by
	// the propagated ID, and read it back — and its cost account — by
	// trace.
	ownerNode.events.Scoped(trace).Record(obs.Event{Kind: obs.KindFuzz, Function: "fft2",
		Target: "ffta", Candidate: "cand0", Outcome: obs.OutcomeSurvived, Started: 3})
	evs := ownerNode.events.Scoped(trace).Snapshot()
	if len(evs) == 0 {
		t.Fatal("owner has no events under the propagated trace")
	}
	if n, _ := obs.FoldCosts(evs); n == 0 {
		t.Fatal("owner has no cost account under the propagated trace")
	}
}

// TestReadyzNoHealthyPeers (satellite): a node whose live ring is empty
// reports not-ready, and recovers when a peer comes back.
func TestReadyzNoHealthyPeers(t *testing.T) {
	tr := NewFaultTransport(nil, 1)
	nodes := newTestFleet(t, 1, tr, nil) // the one real replica, peer "n0"

	localOK := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ready")
	})
	router := New(Config{
		Self:             "router", // not in the table: every shard range lives on n0
		Peers:            map[string]string{"n0": nodes[0].url},
		LocalHandler:     localOK,
		Transport:        tr,
		ProbeInterval:    20 * time.Millisecond,
		FailureThreshold: 2,
	})
	defer router.Close()
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	readyz := func() int {
		resp, err := http.Get(rts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	waitFor(t, 3*time.Second, "initial ready", func() bool { return readyz() == http.StatusOK })

	// Partition the only peer: the ring empties and readyz flips.
	tr.SetRule(nodes[0].host, LinkRule{Down: true})
	waitFor(t, 3*time.Second, "not-ready with zero healthy peers", func() bool {
		return readyz() == http.StatusServiceUnavailable
	})
	if v := router.reg.Counter("fleet.readyz_no_peers").Value(); v == 0 {
		t.Fatal("fleet.readyz_no_peers did not count")
	}

	// Heal the link: the next probe re-admits the peer.
	tr.SetRule(nodes[0].host, LinkRule{})
	waitFor(t, 3*time.Second, "ready after recovery", func() bool { return readyz() == http.StatusOK })
}

// TestProbesEjectKilledPeerWithinBudget: with no request traffic, so
// no forward failure can feed a breaker, the health probes alone must
// get every survivor to eject a killed peer within
// ProbeInterval × (FailureThreshold + 2).
func TestProbesEjectKilledPeerWithinBudget(t *testing.T) {
	const interval, threshold = 40 * time.Millisecond, 2
	tr := NewFaultTransport(nil, 1)
	nodes := newTestFleet(t, 3, tr, func(i int, fc *Config, sc *server.Config) {
		fc.ProbeInterval = interval
		fc.FailureThreshold = threshold
	})
	victim, survivors := nodes[0], nodes[1:]
	time.Sleep(2 * interval) // let probe rounds pass while all are alive
	for _, tn := range survivors {
		if !tn.node.Ring().IsHealthy(victim.id) ||
			tn.tracer.Metrics().Counter("fleet.peer_ejections").Value() != 0 {
			t.Fatalf("%s ejected a peer before any was killed", tn.id)
		}
	}

	victim.node.Close()
	victim.ts.Close()
	tr.SetRule(victim.host, LinkRule{Down: true})
	start := time.Now()
	budget := interval * (threshold + 2)
	ejected := make([]time.Duration, len(survivors))
	for pending := len(survivors); pending > 0 && time.Since(start) < 10*budget; {
		for i, tn := range survivors {
			if ejected[i] == 0 && !tn.node.Ring().IsHealthy(victim.id) {
				ejected[i] = time.Since(start)
				pending--
			}
		}
		time.Sleep(time.Millisecond)
	}
	for i, tn := range survivors {
		switch {
		case ejected[i] == 0:
			t.Errorf("%s never ejected %s", tn.id, victim.id)
		case ejected[i] > budget:
			t.Errorf("%s ejected %s after %v, budget %v", tn.id, victim.id, ejected[i], budget)
		}
		if v := tn.tracer.Metrics().Counter("fleet.forwarded").Value(); v != 0 {
			t.Errorf("%s forwarded %d requests; the test sends none", tn.id, v)
		}
	}
	t.Logf("ejected after %v (budget %v)", ejected, budget)
}

// TestSingleflightDedupUnderFailover (satellite): the digest's owner
// dies mid-fleet; concurrent same-digest requests entering at both
// survivors converge on the new owner, dedup to exactly ONE synthesis
// fleet-wide, and return byte-identical adapters.
func TestSingleflightDedupUnderFailover(t *testing.T) {
	tr := NewFaultTransport(nil, 1)
	release := make(chan struct{})
	nodes := newTestFleet(t, 3, tr, func(i int, fc *Config, sc *server.Config) {
		fc.ProbeInterval = 25 * time.Millisecond
	})
	for _, tn := range nodes {
		tn.compile.release = release
		tn.compile.entered = make(chan struct{}, 8)
	}

	req := fleetReq("int fft3(int x) { return 3 * x; }")
	key := req.Digest()
	owner := nodes[0].node.Ring().Owner(key)
	ownerNode := findNode(t, nodes, owner)
	var survivors []*testNode
	for _, tn := range nodes {
		if tn.id != owner {
			survivors = append(survivors, tn)
		}
	}

	// Kill the owner: close its socket AND hard-partition its address,
	// then wait for both survivors to eject it from their rings.
	ownerNode.node.Close()
	ownerNode.ts.Close()
	tr.SetRule(ownerNode.host, LinkRule{Down: true})
	for _, s := range survivors {
		s := s
		waitFor(t, 5*time.Second, s.id+" ejecting dead owner", func() bool {
			return !s.node.Ring().IsHealthy(owner)
		})
	}
	newOwner := survivors[0].node.Ring().Owner(key)
	if got := survivors[1].node.Ring().Owner(key); got != newOwner {
		t.Fatalf("survivors disagree on new owner: %q vs %q", newOwner, got)
	}

	// Fire the same digest at BOTH survivors concurrently. (Raw HTTP in
	// the goroutines: t.Fatal may only be called from the test goroutine,
	// so errors travel back through the channel.)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		job    jobWire
		err    error
	}
	results := make(chan result, 2)
	for _, s := range survivors {
		s := s
		go func() {
			resp, err := http.Post(s.url+"/compile?wait=1", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			var jw jobWire
			if derr := json.NewDecoder(resp.Body).Decode(&jw); derr != nil {
				results <- result{status: resp.StatusCode, err: derr}
				return
			}
			results <- result{status: resp.StatusCode, job: jw}
		}()
	}

	// Exactly one compile starts; give the second request time to attach
	// to the in-flight job, then let it finish.
	newOwnerNode := findNode(t, nodes, newOwner)
	select {
	case <-newOwnerNode.compile.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no compile started on the new owner")
	}
	time.Sleep(150 * time.Millisecond)
	close(release)

	var got []result
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			got = append(got, r)
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for responses")
		}
	}
	for _, r := range got {
		if r.err != nil {
			t.Fatalf("request failed: %v", r.err)
		}
		if r.status != http.StatusOK || r.job.State != "done" {
			t.Fatalf("result %+v, want 200/done", r)
		}
		if r.job.AdapterC == "" {
			t.Fatal("empty adapter")
		}
	}
	if got[0].job.AdapterC != got[1].job.AdapterC {
		t.Fatalf("adapters differ across entry points:\n%q\nvs\n%q",
			got[0].job.AdapterC, got[1].job.AdapterC)
	}
	total := 0
	for _, tn := range nodes {
		total += tn.compile.callCount()
	}
	if total != 1 {
		t.Fatalf("fleet compiled %d times, want exactly 1 (singleflight across failover)", total)
	}
	if findNode(t, nodes, newOwner).compile.callCount() != 1 {
		t.Fatal("the single compile did not run on the new ring owner")
	}
}

// TestForwardedCacheHit: a digest already stored on the owner is served
// to a non-owner entry by the forwarded POST, which the owner answers
// from its store before admission — a cache hit, and no compile.
func TestForwardedCacheHit(t *testing.T) {
	tr := NewFaultTransport(nil, 1)
	nodes := newTestFleet(t, 3, tr, func(i int, fc *Config, sc *server.Config) {
		st, err := store.Open(t.TempDir(), obs.New().Metrics())
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		sc.Store = st
	})

	req := fleetReq("int fft4(int x) { return 4 * x; }")
	key := req.Digest()
	owner := nodes[0].node.Ring().Owner(key)
	ownerNode := findNode(t, nodes, owner)
	var entry *testNode
	for _, tn := range nodes {
		if tn.id != owner {
			entry = tn
			break
		}
	}

	// Seed the adapter into the owner's store directly (as if an earlier
	// request had compiled it), then enter at a non-owner.
	resp := postCompile(t, ownerNode.url, req, "?wait=1", nil)
	job := decodeWire(t, resp)
	if resp.StatusCode != http.StatusOK || job.State != "done" {
		t.Fatalf("seed compile: status=%d job=%+v", resp.StatusCode, job)
	}

	resp = postCompile(t, entry.url, req, "?wait=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Facc-Cache") != "hit" {
		t.Fatalf("X-Facc-Cache = %q, want hit", resp.Header.Get("X-Facc-Cache"))
	}
	hit := decodeWire(t, resp)
	if hit.AdapterC != job.AdapterC {
		t.Fatalf("cached adapter differs:\n%q\nvs\n%q", hit.AdapterC, job.AdapterC)
	}
	// The whole fleet compiled once (the seed); the forwarded hit added
	// none.
	total := 0
	for _, tn := range nodes {
		total += tn.compile.callCount()
	}
	if total != 1 {
		t.Fatalf("fleet compiled %d times, want 1", total)
	}
}

// TestForwardFailoverToNextOwner: the first owner is partitioned (but
// the entry node hasn't probed it dead yet) — the one forward to it
// fails, feeds the breaker, and the request fails over down the chain
// at once, still compiling exactly once.
func TestForwardFailoverToNextOwner(t *testing.T) {
	tr := NewFaultTransport(nil, 1)
	nodes := newTestFleet(t, 3, tr, func(i int, fc *Config, sc *server.Config) {
		fc.ProbeInterval = time.Hour // only forward errors feed the breakers
	})

	req := fleetReq("int fft5(int x) { return 5 * x; }")
	key := req.Digest()
	owners := nodes[0].node.Ring().Owners(key, 0)
	entry := findNode(t, nodes, owners[2]) // enter at the chain's tail
	dead := findNode(t, nodes, owners[0])
	tr.SetRule(dead.host, LinkRule{Down: true})

	resp := postCompile(t, entry.url, req, "?wait=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	job := decodeWire(t, resp)
	if job.State != "done" {
		t.Fatalf("job = %+v, want done", job)
	}
	if dead.compile.callCount() != 0 {
		t.Fatal("partitioned owner compiled")
	}
	total := 0
	for _, tn := range nodes {
		total += tn.compile.callCount()
	}
	if total != 1 {
		t.Fatalf("fleet compiled %d times, want 1", total)
	}
	if v := entry.tracer.Metrics().Counter("fleet.forward_failovers").Value(); v != 1 {
		t.Fatalf("fleet.forward_failovers = %d, want 1", v)
	}
}
