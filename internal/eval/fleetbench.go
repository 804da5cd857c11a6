package eval

// The fleet chaos saturation bench: several in-process faccd replicas
// behind a fault-injecting transport, driven to saturation while one
// replica is killed mid-run and another is put behind a lossy, slow
// link. It is the executable form of the fleet's robustness contract:
//
//   - no acknowledged job is dropped — a client that got a final answer
//     got a real one; everything aborted mid-flight is retried until it
//     completes on a survivor;
//   - adapters are byte-identical to a single-node baseline, whatever
//     path (compile, dedup, cache probe, failover, degraded local) a
//     response took;
//   - the ring rebalances within the probe budget after a kill;
//   - shedding stays bounded as offered load rises (the shed curve).
//
// The report rides inside BENCH_serve.json as the "fleet" block and is
// gated by BenchGate alongside the single-node serve numbers.

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
	"time"

	"facc"
	"facc/internal/bench"
	"facc/internal/fleet"
	"facc/internal/obs"
	"facc/internal/server"
	"facc/internal/store"
)

// FleetBenchConfig shapes the chaos run. Zero values get defaults sized
// so the full-pipeline run stays in CI territory.
type FleetBenchConfig struct {
	Replicas    int // fleet size (default 3)
	Requests    int // main-phase client requests (default 36)
	Concurrency int // concurrent clients (default 9)
	QueueDepth  int // per-replica admission queue (default 4)
	Workers     int // per-replica compile workers (default 2)
	NumTests    int // IO examples per candidate (default 4)
	Variants    int // distinct digests in the main mix (default 4)

	ProbeInterval    time.Duration // health-probe period (default 40ms)
	FailureThreshold int           // consecutive failures to eject (default 2)
	LossRate         float64       // lossy-partition drop rate (default 0.3)
	Seed             int64         // fault-transport seed (default 1)

	// CurveLevels are the concurrency steps of the shed-rate-vs-offered-
	// load sweep run after the chaos phase (default 2,4,8). Each level
	// offers 2×level requests over level distinct fresh digests.
	CurveLevels []int

	// Compile overrides the real pipeline (tests). The same function
	// drives the single-node baseline and every replica, so adapters are
	// comparable by construction only if it is deterministic — exactly
	// the property the bench verifies for the real pipeline.
	Compile server.CompileFunc
}

func (c *FleetBenchConfig) defaults() {
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
	if len(c.CurveLevels) == 0 {
		c.CurveLevels = []int{2, 4, 8}
	}
}

// FleetLoadPoint is one step of the shed-rate-vs-offered-load curve.
type FleetLoadPoint struct {
	Concurrency  int     `json:"concurrency"`
	Offered      int     `json:"offered"`
	Completed    int     `json:"completed"`
	Shed429      int     `json:"shed_429"`
	ShedRate     float64 `json:"shed_rate"`
	LatencyMsP99 float64 `json:"latency_ms_p99"`
}

// FleetBenchReport is the "fleet" block of BENCH_serve.json.
type FleetBenchReport struct {
	Replicas    int `json:"replicas"`
	Requests    int `json:"requests"`
	Concurrency int `json:"concurrency"`
	QueueDepth  int `json:"queue_depth"`
	Workers     int `json:"workers"`
	Variants    int `json:"variants"`

	Completed    int `json:"completed"`
	Failed       int `json:"failed"`
	Shed429      int `json:"shed_429"`
	Retries      int `json:"client_retries"`
	AckedDropped int `json:"acked_dropped"`

	// Chaos timeline.
	KilledReplica      string  `json:"killed_replica"`
	KillAtRequest      int     `json:"kill_at_request"`
	RebalanceMs        float64 `json:"rebalance_ms"`
	RebalanceBudgetMs  float64 `json:"rebalance_budget_ms"`
	PartitionedReplica string  `json:"partitioned_replica"`
	LossRate           float64 `json:"loss_rate"`

	// Fleet-layer counters summed across replicas.
	Forwarded      int64 `json:"forwarded"`
	Failovers      int64 `json:"failovers"`
	DegradedLocal  int64 `json:"degraded_local"`
	CacheProbeHits int64 `json:"cache_probe_hits"`
	Hedges         int64 `json:"hedges"`
	RateLimited    int64 `json:"ratelimited"`

	WallSeconds float64 `json:"wall_seconds"`
	Throughput  float64 `json:"requests_per_sec"`

	LatencyMsP50 float64 `json:"latency_ms_p50"`
	LatencyMsP90 float64 `json:"latency_ms_p90"`
	LatencyMsP99 float64 `json:"latency_ms_p99"`
	LatencyMsMax float64 `json:"latency_ms_max"`

	// AdaptersConsistent is true when every completed response carried
	// adapter bytes identical to the single-node baseline for its digest
	// — across kill, partition, failover and degraded-local paths.
	AdaptersConsistent bool `json:"adapters_consistent"`

	ShedCurve []FleetLoadPoint `json:"shed_curve"`
}

// benchReplica is one in-process fleet member.
type benchReplica struct {
	id     string
	url    string
	host   string
	tracer *obs.Tracer
	st     *store.Store
	srv    *server.Server
	node   *fleet.Node
	ln     net.Listener
	hs     *http.Server
	dead   bool
}

// FleetBench runs the chaos saturation harness and returns the report.
func FleetBench(ctx context.Context, cfg FleetBenchConfig) (*FleetBenchReport, error) {
	cfg.defaults()
	if ctx == nil {
		ctx = context.Background()
	}
	suite := bench.SupportedSuite()
	if len(suite) == 0 {
		return nil, fmt.Errorf("fleetbench: empty benchmark suite")
	}
	b := suite[0]
	makeReq := func(numTests int) facc.CompileRequest {
		return facc.CompileRequest{
			Name:          b.File,
			Source:        b.Source(),
			Target:        "ffta",
			Entry:         b.Entry,
			ProfileValues: b.ProfileValues,
			NumTests:      numTests,
		}
	}

	// ---- Single-node baseline: the adapter bytes every fleet response
	// must reproduce, per digest. Run before any chaos exists.
	baseline := map[string]string{}
	{
		dir, err := os.MkdirTemp("", "facc-fleetbench-base-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		btr := obs.New()
		bst, err := store.Open(dir, btr.Metrics())
		if err != nil {
			return nil, err
		}
		bsrv := server.New(server.Config{
			Workers: cfg.Workers,
			Store:   bst,
			Tracer:  btr,
			Compile: cfg.Compile,
		})
		bln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		bhs := &http.Server{Handler: bsrv.Handler()}
		go bhs.Serve(bln)
		burl := "http://" + bln.Addr().String()
		for i := 0; i < cfg.Variants; i++ {
			key, adapter, err := compileOnce(ctx, burl, makeReq(cfg.NumTests+i))
			if err != nil {
				bhs.Close()
				bst.Close()
				return nil, fmt.Errorf("fleetbench: baseline compile %d: %w", i, err)
			}
			baseline[key] = adapter
		}
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		bsrv.Drain(dctx)
		cancel()
		bhs.Close()
		bst.Close()
	}

	// ---- Stand up the fleet: listeners first (the peer table needs
	// every address), then replicas sharing one fault transport.
	tr := fleet.NewFaultTransport(nil, cfg.Seed)
	replicas := make([]*benchReplica, cfg.Replicas)
	peers := map[string]string{}
	for i := range replicas {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("r%d", i)
		r := &benchReplica{id: id, ln: ln, host: ln.Addr().String(), url: "http://" + ln.Addr().String()}
		replicas[i] = r
		peers[id] = r.url
	}
	for _, r := range replicas {
		dir, err := os.MkdirTemp("", "facc-fleetbench-"+r.id+"-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		r.tracer = obs.New()
		r.st, err = store.Open(dir, r.tracer.Metrics())
		if err != nil {
			return nil, err
		}
		r.srv = server.New(server.Config{
			QueueDepth: cfg.QueueDepth,
			Workers:    cfg.Workers,
			Store:      r.st,
			Tracer:     r.tracer,
			Compile:    cfg.Compile,
		})
		r.node = fleet.New(fleet.Config{
			Self:             r.id,
			Peers:            peers,
			Local:            r.srv,
			Tracer:           r.tracer,
			Transport:        tr,
			ProbeInterval:    cfg.ProbeInterval,
			FailureThreshold: cfg.FailureThreshold,
			Seed:             cfg.Seed,
		})
		r.hs = &http.Server{Handler: r.node.Handler()}
		go r.hs.Serve(r.ln)
	}
	defer func() {
		for _, r := range replicas {
			r.node.Close()
			r.hs.Close()
			dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			r.srv.Drain(dctx)
			cancel()
			r.st.Close()
		}
	}()

	rep := &FleetBenchReport{
		Replicas:          cfg.Replicas,
		Requests:          cfg.Requests,
		Concurrency:       cfg.Concurrency,
		QueueDepth:        cfg.QueueDepth,
		Workers:           cfg.Workers,
		Variants:          cfg.Variants,
		LossRate:          cfg.LossRate,
		RebalanceBudgetMs: float64(cfg.ProbeInterval*time.Duration(cfg.FailureThreshold+2)) / float64(time.Millisecond),
	}

	// Chaos targets: kill the replica owning the first variant's digest
	// (so ownership provably moves), partition the next surviving one.
	killAt := cfg.Requests / 3
	partitionAt := cfg.Requests / 2
	firstReq := makeReq(cfg.NumTests)
	firstKey := firstReq.Digest()
	killID := replicas[0].node.Ring().Owner(firstKey)
	var killed, partitioned *benchReplica
	for _, r := range replicas {
		if r.id == killID {
			killed = r
		}
	}
	for _, r := range replicas {
		if r != killed {
			partitioned = r
			break
		}
	}
	rep.KilledReplica = killed.id
	rep.KillAtRequest = killAt
	rep.PartitionedReplica = partitioned.id

	var rebalanceMs float64
	var rebalanceWG sync.WaitGroup
	kill := func() {
		killed.dead = true
		killed.node.Close()
		killed.hs.Close() // closes the listener and every active conn: kill -9 as seen from outside
		tr.SetRule(killed.host, fleet.LinkRule{Down: true})
		start := time.Now()
		rebalanceWG.Add(1)
		go func() {
			defer rebalanceWG.Done()
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				all := true
				for _, r := range replicas {
					if r.dead {
						continue
					}
					if r.node.Ring().IsHealthy(killed.id) {
						all = false
						break
					}
				}
				if all {
					rebalanceMs = float64(time.Since(start)) / float64(time.Millisecond)
					return
				}
				time.Sleep(time.Millisecond)
			}
			// Never converged: report the full wait so the budget check
			// fails loudly instead of a 0 sliding under it.
			rebalanceMs = float64(time.Since(start)) / float64(time.Millisecond)
		}()
	}
	partition := func() {
		tr.SetRule(partitioned.host, fleet.LinkRule{
			LossRate:    cfg.LossRate,
			Latency:     5 * time.Millisecond,
			LatencyRate: 0.5,
		})
	}

	// ---- Main phase: saturate the fleet while the chaos fires.
	var mu sync.Mutex
	var latencies []float64
	consistent := true
	urls := make([]string, 0, len(replicas))
	for _, r := range replicas {
		urls = append(urls, r.url)
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Concurrency; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for i := range work {
				req := makeReq(cfg.NumTests + i%cfg.Variants)
				st := clientDrive(ctx, client, urls, (c+i)%len(urls), req, 400)
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
			return nil, ctx.Err()
		}
	}
	close(work)
	wg.Wait()
	rep.WallSeconds = time.Since(start).Seconds()
	if rep.WallSeconds > 0 {
		rep.Throughput = float64(rep.Completed) / rep.WallSeconds
	}
	rebalanceWG.Wait()
	rep.RebalanceMs = rebalanceMs
	rep.AdaptersConsistent = consistent

	sort.Float64s(latencies)
	rep.LatencyMsP50 = quantile(latencies, 0.50)
	rep.LatencyMsP90 = quantile(latencies, 0.90)
	rep.LatencyMsP99 = quantile(latencies, 0.99)
	rep.LatencyMsMax = quantile(latencies, 1)

	// ---- Shed curve: heal the lossy link (overload, not loss, is the
	// variable here) and sweep offered load over the surviving replicas.
	// Each level compiles fresh digests so the admission queue — not the
	// adapter cache — absorbs the load.
	tr.SetRule(partitioned.host, fleet.LinkRule{})
	var survivors []string
	for _, r := range replicas {
		if !r.dead {
			survivors = append(survivors, r.url)
		}
	}
	curveTests := cfg.NumTests + cfg.Variants
	for li, level := range cfg.CurveLevels {
		point := FleetLoadPoint{Concurrency: level, Offered: 2 * level}
		var pmu sync.Mutex
		var plat []float64
		var pwg sync.WaitGroup
		pwork := make(chan int)
		for c := 0; c < level; c++ {
			c := c
			pwg.Add(1)
			go func() {
				defer pwg.Done()
				client := &http.Client{}
				for i := range pwork {
					// One fresh digest per client per level: `level`
					// concurrent distinct jobs against a depth-QueueDepth
					// queue, so shedding rises with the level.
					req := makeReq(curveTests + li*100 + i%level)
					st := clientDrive(ctx, client, survivors, c%len(survivors), req, 400)
					pmu.Lock()
					point.Shed429 += st.shed
					if st.done {
						point.Completed++
						plat = append(plat, st.latencyMs)
					}
					pmu.Unlock()
				}
			}()
		}
		for i := 0; i < point.Offered; i++ {
			select {
			case pwork <- i:
			case <-ctx.Done():
				close(pwork)
				pwg.Wait()
				return nil, ctx.Err()
			}
		}
		close(pwork)
		pwg.Wait()
		if tot := point.Shed429 + point.Completed; tot > 0 {
			point.ShedRate = float64(point.Shed429) / float64(tot)
		}
		sort.Float64s(plat)
		point.LatencyMsP99 = quantile(plat, 0.99)
		rep.ShedCurve = append(rep.ShedCurve, point)
	}

	// Fleet-layer counters summed across every replica (including the
	// killed one's pre-death activity).
	for _, r := range replicas {
		c := r.tracer.Metrics().Counters()
		rep.Forwarded += c["fleet.forwarded"]
		rep.Failovers += c["fleet.forward_failovers"]
		rep.DegradedLocal += c["fleet.degraded_local"]
		rep.CacheProbeHits += c["fleet.cache_probe_hits"]
		rep.Hedges += c["fleet.hedges"]
		rep.RateLimited += c["fleet.ratelimited"]
	}
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
		url := urls[cur%len(urls)]
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
			url+"/compile?wait=1", bytes.NewReader(body))
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
				// Honour the hint but cap it: the bench measures shedding,
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
				return out
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
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WriteText prints the human-readable chaos summary.
func (r *FleetBenchReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Fleet chaos bench: %d replicas, %d requests x %d clients over %d digests, queue=%d workers=%d\n",
		r.Replicas, r.Requests, r.Concurrency, r.Variants, r.QueueDepth, r.Workers)
	fmt.Fprintf(w, "killed %s at request %d (rebalanced in %.1fms, budget %.1fms); %s behind %.0f%% lossy link\n",
		r.KilledReplica, r.KillAtRequest, r.RebalanceMs, r.RebalanceBudgetMs,
		r.PartitionedReplica, 100*r.LossRate)
	fmt.Fprintf(w, "completed %d, failed %d, shed (429) %d, client retries %d, acked dropped %d\n",
		r.Completed, r.Failed, r.Shed429, r.Retries, r.AckedDropped)
	fmt.Fprintf(w, "fleet: forwarded %d, failovers %d, degraded local %d, cache probe hits %d, hedges %d\n",
		r.Forwarded, r.Failovers, r.DegradedLocal, r.CacheProbeHits, r.Hedges)
	fmt.Fprintf(w, "wall %.2fs (%.1f req/s)  latency ms: p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
		r.WallSeconds, r.Throughput, r.LatencyMsP50, r.LatencyMsP90, r.LatencyMsP99, r.LatencyMsMax)
	for _, p := range r.ShedCurve {
		fmt.Fprintf(w, "  load %2d clients: offered %3d, completed %3d, shed %3d (rate %.2f), p99 %.1fms\n",
			p.Concurrency, p.Offered, p.Completed, p.Shed429, p.ShedRate, p.LatencyMsP99)
	}
	if r.AdaptersConsistent {
		fmt.Fprintf(w, "adapters byte-identical to the single-node baseline across all paths\n")
	} else {
		fmt.Fprintf(w, "WARNING: adapter bytes diverged from the single-node baseline\n")
	}
}
