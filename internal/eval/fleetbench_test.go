package eval

// The fleet chaos scenario: several in-process faccd replicas behind a
// fault-injecting transport, driven to saturation while the replica that
// owns the first digest is killed mid-run and another is put behind a
// lossy, slow link. TestFleetBenchChaos holds the fleet's robustness
// contract on it:
//
//   - no acknowledged job is dropped — a client that got a final answer
//     got a real one; everything aborted mid-flight is retried until it
//     completes on a survivor;
//   - adapters are byte-identical to a single-node baseline, whatever
//     path (compile, dedup, cache hit, failover, degraded local) a
//     response took;
//   - the kill exercises failover, and every survivor ejects the victim
//     within the probe budget.
//
// BenchmarkFleetChaos times the same run on the real pipeline; its
// medians are gated in BENCH_layers.json (make bench-gate).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"facc"
	"facc/internal/bench"
	"facc/internal/fleet"
	"facc/internal/obs"
	"facc/internal/server"
	"facc/internal/store"
)

// fleetChaosConfig shapes the chaos run. Zero values get defaults sized
// so the full-pipeline run takes about a second.
type fleetChaosConfig struct {
	Replicas    int // fleet size (default 3)
	Requests    int // client requests (default 36)
	Concurrency int // concurrent clients (default 9)
	QueueDepth  int // per-replica admission queue (default 4)
	Workers     int // per-replica compile workers (default 2)
	NumTests    int // IO examples per candidate (default 4)
	Variants    int // distinct digests in the mix (default 4)

	ProbeInterval    time.Duration // health-probe period (default 40ms)
	FailureThreshold int           // consecutive failures to eject (default 2)
	LossRate         float64       // lossy-partition drop rate (default 0.3)
	Seed             int64         // fault-transport seed (default 1)

	// Compile overrides the real pipeline. The same function drives the
	// single-node baseline and every replica, so adapters are comparable
	// by construction only if it is deterministic — exactly the property
	// the run verifies for the real pipeline.
	Compile server.CompileFunc
}

func (c *fleetChaosConfig) defaults() {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Requests <= 0 {
		c.Requests = 36
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 9
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.NumTests <= 0 {
		c.NumTests = 4
	}
	if c.Variants <= 0 {
		c.Variants = 4
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 40 * time.Millisecond
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 2
	}
	if c.LossRate <= 0 {
		c.LossRate = 0.3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// rebalanceBudget is how long every survivor may take to eject a killed
// peer: FailureThreshold failed probes, plus two intervals of slack for
// the phase of the probe clock and scheduling.
func (c *fleetChaosConfig) rebalanceBudget() time.Duration {
	return c.ProbeInterval * time.Duration(c.FailureThreshold+2)
}

// fleetChaosReport is one chaos run's outcome.
type fleetChaosReport struct {
	Requests     int
	Completed    int
	Failed       int
	Shed429      int
	Retries      int
	AckedDropped int

	KilledReplica      string
	PartitionedReplica string
	// VictimHealthyBefore is true when every other replica still saw
	// the victim as healthy at the moment of the kill, so RebalanceMs
	// times an ejection the kill caused.
	VictimHealthyBefore bool
	RebalanceMs         float64
	RebalanceBudgetMs   float64

	// Fleet-layer counters summed across replicas.
	Forwarded     int64
	Failovers     int64
	DegradedLocal int64

	WallSeconds  float64
	LatencyMsP50 float64
	LatencyMsP99 float64

	// AdaptersConsistent is true when every completed response carried
	// adapter bytes identical to the single-node baseline for its digest.
	AdaptersConsistent bool
}

func (r *fleetChaosReport) String() string {
	return fmt.Sprintf("killed %s (healthy before: %v, ejected in %.1fms, budget %.0fms), %s lossy; "+
		"completed %d/%d, failed %d, shed %d, retries %d, acked dropped %d; "+
		"forwarded %d, failovers %d, degraded local %d; "+
		"wall %.2fs, latency p50 %.1fms p99 %.1fms; adapters consistent %v",
		r.KilledReplica, r.VictimHealthyBefore, r.RebalanceMs, r.RebalanceBudgetMs, r.PartitionedReplica,
		r.Completed, r.Requests, r.Failed, r.Shed429, r.Retries, r.AckedDropped,
		r.Forwarded, r.Failovers, r.DegradedLocal,
		r.WallSeconds, r.LatencyMsP50, r.LatencyMsP99, r.AdaptersConsistent)
}

// benchReplica is one in-process faccd: a store, a compile server and,
// in a fleet, the fleet node in front of it, on a loopback listener.
type benchReplica struct {
	id     string
	url    string
	host   string
	tracer *obs.Tracer
	st     *store.Store
	srv    *server.Server
	node   *fleet.Node
	hs     *http.Server
	dead   bool
}

// startReplica opens a store under dir and serves a compile server on
// ln, behind a fleet node when fc is non-nil.
func startReplica(id string, ln net.Listener, dir string, cfg fleetChaosConfig, fc *fleet.Config) (*benchReplica, error) {
	r := &benchReplica{id: id, host: ln.Addr().String(), url: "http://" + ln.Addr().String(), tracer: obs.New()}
	var err error
	if r.st, err = store.Open(dir, r.tracer.Metrics()); err != nil {
		return nil, err
	}
	r.srv = server.New(server.Config{
		QueueDepth: cfg.QueueDepth,
		Workers:    cfg.Workers,
		Store:      r.st,
		Tracer:     r.tracer,
		Compile:    cfg.Compile,
	})
	var h http.Handler = r.srv.Handler()
	if fc != nil {
		fc.Self, fc.Local, fc.Tracer = id, r.srv, r.tracer
		r.node = fleet.New(*fc)
		h = r.node.Handler()
	}
	r.hs = &http.Server{Handler: h}
	go r.hs.Serve(ln)
	return r, nil
}

// stop shuts the replica down; stopping a killed replica again is safe.
func (r *benchReplica) stop() {
	if r.node != nil {
		r.node.Close()
	}
	r.hs.Close()
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	r.srv.Drain(dctx)
	cancel()
	r.st.Close()
}

// chaosFleet is a fleet of replicas sharing one fault transport.
type chaosFleet struct {
	tr       *fleet.FaultTransport
	replicas []*benchReplica
	dir      string
}

// startFleet stands up cfg.Replicas replicas: listeners first (the peer
// table needs every address), then the replicas.
func startFleet(cfg fleetChaosConfig) (*chaosFleet, error) {
	dir, err := os.MkdirTemp("", "facc-fleetchaos-*")
	if err != nil {
		return nil, err
	}
	f := &chaosFleet{tr: fleet.NewFaultTransport(nil, cfg.Seed), dir: dir}
	lns := make([]net.Listener, cfg.Replicas)
	peers := map[string]string{}
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			f.close()
			return nil, err
		}
		peers[fmt.Sprintf("r%d", i)] = "http://" + lns[i].Addr().String()
	}
	for i, ln := range lns {
		id := fmt.Sprintf("r%d", i)
		r, err := startReplica(id, ln, dir+"/"+id, cfg, &fleet.Config{
			Peers:            peers,
			Transport:        f.tr,
			ProbeInterval:    cfg.ProbeInterval,
			FailureThreshold: cfg.FailureThreshold,
		})
		if err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, r)
	}
	return f, nil
}

func (f *chaosFleet) close() {
	for _, r := range f.replicas {
		r.stop()
	}
	os.RemoveAll(f.dir)
}

func (f *chaosFleet) byID(id string) *benchReplica {
	for _, r := range f.replicas {
		if r.id == id {
			return r
		}
	}
	return nil
}

// survivorsSee reports whether every live replica other than victim sees
// it as healthy (want true) or as ejected (want false).
func (f *chaosFleet) survivorsSee(victim *benchReplica, want bool) bool {
	for _, r := range f.replicas {
		if r != victim && !r.dead && r.node.Ring().IsHealthy(victim.id) != want {
			return false
		}
	}
	return true
}

// kill is kill -9 as seen from outside: the node stops probing, the
// listener and every active connection close, and the transport refuses
// the host from now on.
func (f *chaosFleet) kill(r *benchReplica) {
	r.dead = true
	r.node.Close()
	r.hs.Close()
	f.tr.SetRule(r.host, fleet.LinkRule{Down: true})
}

// urls lists the live replicas' base URLs.
func (f *chaosFleet) urls() []string {
	var out []string
	for _, r := range f.replicas {
		if !r.dead {
			out = append(out, r.url)
		}
	}
	return out
}

// counter sums one counter over every replica, the killed one's
// pre-death activity included.
func (f *chaosFleet) counter(name string) int64 {
	var n int64
	for _, r := range f.replicas {
		n += r.tracer.Metrics().Counters()[name]
	}
	return n
}

// chaosRequest is variant i of the scenario's request: the first
// supported corpus program for ffta, whose digest varies with NumTests
// while every variant stays synthesizable.
func chaosRequest(numTests int) facc.CompileRequest {
	b := bench.SupportedSuite()[0]
	return facc.CompileRequest{
		Name:          b.File,
		Source:        b.Source(),
		Target:        "ffta",
		Entry:         b.Entry,
		ProfileValues: b.ProfileValues,
		NumTests:      numTests,
	}
}

// runFleetChaos runs the chaos scenario once and reports it.
func runFleetChaos(ctx context.Context, cfg fleetChaosConfig) (*fleetChaosReport, error) {
	cfg.defaults()

	// Single-node baseline: the adapter bytes every fleet response must
	// reproduce, per digest. Run before any chaos exists.
	baseline := map[string]string{}
	{
		dir, err := os.MkdirTemp("", "facc-fleetchaos-base-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		base, err := startReplica("base", ln, dir, cfg, nil)
		if err != nil {
			ln.Close()
			return nil, err
		}
		for i := 0; i < cfg.Variants; i++ {
			key, adapter, err := compileOnce(ctx, base.url, chaosRequest(cfg.NumTests+i))
			if err != nil {
				base.stop()
				return nil, fmt.Errorf("fleet chaos: baseline compile %d: %w", i, err)
			}
			baseline[key] = adapter
		}
		base.stop()
	}

	f, err := startFleet(cfg)
	if err != nil {
		return nil, err
	}
	defer f.close()

	rep := &fleetChaosReport{
		Requests:          cfg.Requests,
		RebalanceBudgetMs: float64(cfg.rebalanceBudget()) / float64(time.Millisecond),
	}

	// Chaos targets: kill the replica owning the first variant's digest
	// (so ownership provably moves), partition the next surviving one.
	killAt := cfg.Requests / 3
	partitionAt := cfg.Requests / 2
	first := chaosRequest(cfg.NumTests)
	killed := f.byID(f.replicas[0].node.Ring().Owner(first.Digest()))
	partitioned := f.replicas[0]
	if partitioned == killed {
		partitioned = f.replicas[1]
	}
	rep.KilledReplica = killed.id
	rep.PartitionedReplica = partitioned.id

	var rebalanceWG sync.WaitGroup
	kill := func() {
		rep.VictimHealthyBefore = f.survivorsSee(killed, true)
		f.kill(killed)
		start := time.Now()
		rebalanceWG.Add(1)
		go func() {
			defer rebalanceWG.Done()
			// A run that never converges reports the full wait, so the
			// budget check fails loudly instead of a 0 sliding under it.
			deadline := start.Add(10 * time.Second)
			for !f.survivorsSee(killed, false) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			rep.RebalanceMs = float64(time.Since(start)) / float64(time.Millisecond)
		}()
	}
	partition := func() {
		f.tr.SetRule(partitioned.host, fleet.LinkRule{
			LossRate:    cfg.LossRate,
			Latency:     5 * time.Millisecond,
			LatencyRate: 0.5,
		})
	}

	var mu sync.Mutex
	var latencies []float64
	consistent := true
	urls := f.urls()
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for i := range work {
				st := clientDrive(ctx, client, urls, c+i, chaosRequest(cfg.NumTests+i%cfg.Variants), 400)
				mu.Lock()
				rep.Shed429 += st.shed
				rep.Retries += st.retries
				if st.done {
					rep.Completed++
					latencies = append(latencies, st.latencyMs)
					if st.adapter == "" {
						rep.AckedDropped++
					} else if base, ok := baseline[st.key]; ok && base != st.adapter {
						consistent = false
					}
				} else {
					rep.Failed++
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	for i := 0; i < cfg.Requests; i++ {
		if i == killAt {
			kill()
		}
		if i == partitionAt {
			partition()
		}
		select {
		case work <- i:
		case <-ctx.Done():
			close(work)
			wg.Wait()
			rebalanceWG.Wait()
			return nil, ctx.Err()
		}
	}
	close(work)
	wg.Wait()
	rep.WallSeconds = time.Since(start).Seconds()
	rebalanceWG.Wait()
	rep.AdaptersConsistent = consistent

	sort.Float64s(latencies)
	rep.LatencyMsP50 = quantile(latencies, 0.50)
	rep.LatencyMsP99 = quantile(latencies, 0.99)

	rep.Forwarded = f.counter("fleet.forwarded")
	rep.Failovers = f.counter("fleet.forward_failovers")
	rep.DegradedLocal = f.counter("fleet.degraded_local")
	return rep, nil
}

// driveResult is one client request's outcome after retries.
type driveResult struct {
	done      bool
	key       string
	adapter   string
	latencyMs float64
	shed      int
	retries   int
}

// clientDrive pushes one compile request to completion: rotate across
// replicas on transport errors and 503s, back off briefly on 429s, stop
// on a final answer or when attempts run out. This is the "well-behaved
// client" the fleet's no-dropped-acks contract is stated against: an ack
// is a final job state, and anything that dies before one is retried.
func clientDrive(ctx context.Context, client *http.Client, urls []string, startAt int, req facc.CompileRequest, attempts int) driveResult {
	body, _ := json.Marshal(req)
	var out driveResult
	cur := startAt
	start := time.Now()
	for attempt := 0; attempt < attempts; attempt++ {
		if ctx.Err() != nil {
			break
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
			urls[cur%len(urls)]+"/compile?wait=1", bytes.NewReader(body))
		if err != nil {
			break
		}
		hreq.Header.Set("Content-Type", "application/json")
		res, err := client.Do(hreq)
		if err != nil {
			// Replica unreachable (killed, or conn torn down mid-flight):
			// this is NOT an ack — move to the next replica.
			cur++
			out.retries++
			sleepCtx(ctx, 5*time.Millisecond)
			continue
		}
		data, _ := io.ReadAll(res.Body)
		res.Body.Close()
		switch res.StatusCode {
		case http.StatusTooManyRequests:
			out.shed++
			out.retries++
			wait := 20 * time.Millisecond
			if s, err := strconv.Atoi(res.Header.Get("Retry-After")); err == nil && s > 0 {
				// Honour the hint but cap it: the run measures shedding,
				// not how long a polite client is willing to wait.
				if hinted := time.Duration(s) * time.Second; hinted < wait {
					wait = hinted
				}
			}
			sleepCtx(ctx, wait)
			continue
		case http.StatusServiceUnavailable, http.StatusLoopDetected:
			cur++
			out.retries++
			sleepCtx(ctx, 5*time.Millisecond)
			continue
		case http.StatusOK:
			var v struct {
				State    string `json:"state"`
				Key      string `json:"key"`
				AdapterC string `json:"adapter_c"`
			}
			json.Unmarshal(data, &v)
			if v.State == "done" {
				out.done = true
				out.key = v.Key
				out.adapter = v.AdapterC
				out.latencyMs = float64(time.Since(start)) / float64(time.Millisecond)
			}
			// A final non-done state (failed) is an ack too; report it
			// upward rather than retrying into a double compile.
			return out
		default:
			return out
		}
	}
	return out
}

func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// compileOnce POSTs one request with wait=1 and returns (digest, adapter).
func compileOnce(ctx context.Context, base string, req facc.CompileRequest) (string, string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", "", err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/compile?wait=1", bytes.NewReader(body))
	if err != nil {
		return "", "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	res, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return "", "", err
	}
	defer res.Body.Close()
	data, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("status %d: %s", res.StatusCode, bytes.TrimSpace(data))
	}
	var v struct {
		State    string `json:"state"`
		Key      string `json:"key"`
		AdapterC string `json:"adapter_c"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return "", "", err
	}
	if v.State != "done" {
		return "", "", fmt.Errorf("job state %q: %s", v.State, v.Error)
	}
	return v.Key, v.AdapterC, nil
}

// quantile reads the p-quantile from sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// stubFleetCompile is a deterministic, mildly slow compile: the adapter
// depends only on the request (so every replica and the baseline agree),
// and the sleep creates real queue pressure at the run's concurrency.
func stubFleetCompile(ctx context.Context, req facc.CompileRequest) (server.CompileResult, error) {
	select {
	case <-time.After(10 * time.Millisecond):
	case <-ctx.Done():
		return server.CompileResult{}, ctx.Err()
	}
	return server.CompileResult{
		AdapterC: fmt.Sprintf("/* adapter tests=%d */ %s", req.NumTests, req.Source),
		Function: "fft",
	}, nil
}

// checkChaosContract fails on any breach of the fleet's robustness
// contract. Every verdict is exact: no tolerance applies to them.
func checkChaosContract(tb testing.TB, rep *fleetChaosReport) {
	tb.Helper()
	if rep.Completed != rep.Requests || rep.Failed != 0 {
		tb.Errorf("completed %d / failed %d of %d requests; want all completed",
			rep.Completed, rep.Failed, rep.Requests)
	}
	if rep.AckedDropped != 0 {
		tb.Errorf("acked_dropped = %d, want 0", rep.AckedDropped)
	}
	if !rep.AdaptersConsistent {
		tb.Error("adapters diverged from the single-node baseline")
	}
	if !rep.VictimHealthyBefore {
		tb.Errorf("a survivor saw %s as unhealthy before the kill", rep.KilledReplica)
	}
	if rep.RebalanceMs <= 0 || rep.RebalanceMs > rep.RebalanceBudgetMs {
		tb.Errorf("survivors ejected %s in %.1fms, budget %.0fms",
			rep.KilledReplica, rep.RebalanceMs, rep.RebalanceBudgetMs)
	}
	if rep.Failovers == 0 {
		tb.Error("no forward failed over: the kill exercised no failover path")
	}
}

// TestFleetBenchChaos runs the chaos scenario — the owner of the first
// digest killed mid-run, a second replica behind a 30% lossy link — with
// a stub compile and with the real pipeline, and holds the fleet's
// robustness contract on both.
func TestFleetBenchChaos(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  fleetChaosConfig
	}{
		{"stub", fleetChaosConfig{Requests: 24, Concurrency: 6, ProbeInterval: 25 * time.Millisecond,
			Compile: stubFleetCompile}},
		{"pipeline", fleetChaosConfig{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			rep, err := runFleetChaos(ctx, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Log(rep)
			checkChaosContract(t, rep)
		})
	}
}

// TestFleetShedsPastCapacity offers more concurrent fresh digests than
// the survivors of a kill can hold (each holds Workers running jobs and
// QueueDepth queued ones) while every compile is held. First attempts
// past capacity must be shed with 429, and every request must still
// complete once the hold is released and shed clients retry.
func TestFleetShedsPastCapacity(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	hold := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(hold) }) }
	defer release()
	cfg := fleetChaosConfig{
		QueueDepth:    2,
		Workers:       1,
		ProbeInterval: 25 * time.Millisecond,
		Compile: func(ctx context.Context, req facc.CompileRequest) (server.CompileResult, error) {
			select {
			case <-hold:
			case <-ctx.Done():
				return server.CompileResult{}, ctx.Err()
			}
			return server.CompileResult{AdapterC: "/* " + req.Source + " */", Function: "fft"}, nil
		},
	}
	cfg.defaults()
	f, err := startFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	victim := f.replicas[0]
	f.kill(victim)
	deadline := time.Now().Add(10 * time.Second)
	for !f.survivorsSee(victim, false) {
		if time.Now().After(deadline) {
			t.Fatalf("survivors never ejected %s", victim.id)
		}
		time.Sleep(time.Millisecond)
	}
	urls := f.urls()
	offered := 2 * len(urls) * (cfg.Workers + cfg.QueueDepth)

	var firstShed atomic.Int64
	results := make([]driveResult, offered)
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			req := facc.CompileRequest{Name: "t.c", Target: "ffta",
				Source: fmt.Sprintf("int f%d(int x) { return %d * x; }", i, i)}
			st := clientDrive(ctx, client, urls, i, req, 1)
			if st.shed == 0 {
				results[i] = st
				return
			}
			firstShed.Add(1)
			st = clientDrive(ctx, client, urls, i, req, 400)
			st.shed++
			st.retries++
			results[i] = st
		}()
	}
	// Before the release nothing finishes, so every first attempt is
	// either admitted (queued or running) or shed; once all are decided,
	// let the compiles go.
	for firstShed.Load()+f.counter("serve.jobs_admitted") < int64(offered) && time.Now().Before(deadline.Add(10*time.Second)) {
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()

	completed, retries := 0, 0
	for _, st := range results {
		retries += st.retries
		if st.done && st.adapter != "" {
			completed++
		}
	}
	shed := firstShed.Load()
	t.Logf("offered %d to %d survivors: first-attempt shed %d (rate %.2f); completed %d after %d retries",
		offered, len(urls), shed, float64(shed)/float64(offered), completed, retries)
	if shed == 0 {
		t.Errorf("no first attempt of %d was shed by survivors holding %d jobs each",
			offered, cfg.Workers+cfg.QueueDepth)
	}
	if completed != offered {
		t.Errorf("completed %d of %d requests after retries", completed, offered)
	}
}

// BenchmarkFleetChaos times the chaos scenario on the real pipeline and
// reports its wall time (wall_s) and client p99 latency (p99_ms). Every
// run must hold the robustness contract. make bench-gate gates the
// medians of -count runs.
func BenchmarkFleetChaos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := runFleetChaos(context.Background(), fleetChaosConfig{})
		if err != nil {
			b.Fatal(err)
		}
		checkChaosContract(b, rep)
		b.ReportMetric(rep.WallSeconds, "wall_s")
		b.ReportMetric(rep.LatencyMsP99, "p99_ms")
	}
}
