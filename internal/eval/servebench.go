package eval

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
	"sync"
	"time"

	"facc"
	"facc/internal/bench"
	"facc/internal/obs"
	"facc/internal/server"
	"facc/internal/store"
)

// ServeBenchConfig shapes the serving benchmark: a deliberately
// undersized admission queue driven by more concurrent clients than the
// server has workers, so load shedding, deduplication and the adapter
// cache all fire.
type ServeBenchConfig struct {
	Requests    int // total client requests (default 48)
	Concurrency int // concurrent clients (default 12)
	QueueDepth  int // server admission queue (default 4)
	Workers     int // server compile workers (default 2)
	NumTests    int // IO examples per candidate (default 4)
	Variants    int // distinct request digests in the mix (default 4)
}

func (c *ServeBenchConfig) defaults() {
	if c.Requests <= 0 {
		c.Requests = 48
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 12
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
}

// ServeBenchReport is the BENCH_serve.json document: client-observed
// latency quantiles and the server's robustness counters under
// saturating load.
type ServeBenchReport struct {
	Requests    int `json:"requests"`
	Concurrency int `json:"concurrency"`
	QueueDepth  int `json:"queue_depth"`
	Workers     int `json:"workers"`
	Variants    int `json:"variants"`

	Completed int   `json:"completed"`
	Failed    int   `json:"failed"`
	Shed429   int   `json:"shed_429"`
	Retries   int   `json:"client_retries"`
	Deduped   int64 `json:"deduped"`
	CacheHits int64 `json:"cache_hits"`
	Compiles  int64 `json:"jobs_completed"`

	WallSeconds float64 `json:"wall_seconds"`
	Throughput  float64 `json:"requests_per_sec"`

	LatencyMsP50  float64 `json:"latency_ms_p50"`
	LatencyMsP90  float64 `json:"latency_ms_p90"`
	LatencyMsP99  float64 `json:"latency_ms_p99"`
	LatencyMsMax  float64 `json:"latency_ms_max"`
	LatencyMsMean float64 `json:"latency_ms_mean"`

	// AdaptersConsistent verifies the memoization contract under load:
	// every response for the same request digest carried byte-identical
	// adapter C, whether it was compiled, deduplicated or cached.
	AdaptersConsistent bool `json:"adapters_consistent"`

	// Fleet is the multi-replica chaos bench block (FleetBench), attached
	// by faccbench when the fleet run is enabled. Absent in older
	// baselines; the bench gate skips fleet checks until a baseline
	// carries one.
	Fleet *FleetBenchReport `json:"fleet,omitempty"`
}

// ServeBenchRuns is how many serving and fleet runs one BENCH_serve.json
// artifact folds together (see MergeServeRuns).
const ServeBenchRuns = 3

// MergeServeRuns folds repeated runs of the serving benchmark, each with
// its fleet block, into the one artifact the bench gate reads. A verdict
// must hold in every run, so each verdict field takes the worst run's
// value: adapters are consistent only if every run's were; failed,
// acked_dropped and rebalance_ms take the maximum; completed and
// failovers the minimum. Each timing field the gate reads — wall time
// and p99 latency, for the server and for the fleet — takes the median
// of the runs, so one noisy run neither fails the gate nor hides a
// regression. Every other field comes from the run with the median
// server wall time. The runs must all carry a fleet block or none.
func MergeServeRuns(runs []*ServeBenchReport) *ServeBenchReport {
	byWall := append([]*ServeBenchReport(nil), runs...)
	sort.Slice(byWall, func(i, j int) bool { return byWall[i].WallSeconds < byWall[j].WallSeconds })
	out := *byWall[len(byWall)/2]
	median := func(field func(*ServeBenchReport) float64) float64 {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = field(r)
		}
		sort.Float64s(vals)
		return vals[len(vals)/2]
	}
	out.WallSeconds = median(func(r *ServeBenchReport) float64 { return r.WallSeconds })
	out.LatencyMsP99 = median(func(r *ServeBenchReport) float64 { return r.LatencyMsP99 })
	for _, r := range runs {
		out.AdaptersConsistent = out.AdaptersConsistent && r.AdaptersConsistent
		out.Failed = max(out.Failed, r.Failed)
		out.Completed = min(out.Completed, r.Completed)
	}
	if out.Fleet == nil {
		return &out
	}
	fleet := *out.Fleet
	fleet.WallSeconds = median(func(r *ServeBenchReport) float64 { return r.Fleet.WallSeconds })
	fleet.LatencyMsP99 = median(func(r *ServeBenchReport) float64 { return r.Fleet.LatencyMsP99 })
	for _, r := range runs {
		f := r.Fleet
		fleet.AdaptersConsistent = fleet.AdaptersConsistent && f.AdaptersConsistent
		fleet.Failed = max(fleet.Failed, f.Failed)
		fleet.AckedDropped = max(fleet.AckedDropped, f.AckedDropped)
		fleet.RebalanceMs = max(fleet.RebalanceMs, f.RebalanceMs)
		fleet.Completed = min(fleet.Completed, f.Completed)
		fleet.Failovers = min(fleet.Failovers, f.Failovers)
	}
	out.Fleet = &fleet
	return &out
}

// ServeBench stands up a real faccd-style server (full pipeline, real
// store) on a loopback listener and saturates it: Concurrency clients
// replay Requests compile requests spread over Variants distinct
// digests, retrying shed (429) responses with a short backoff. The
// report captures end-to-end latency quantiles, shed/dedup/cache counts
// and the byte-identical-adapter consistency verdict.
func ServeBench(ctx context.Context, cfg ServeBenchConfig) (*ServeBenchReport, error) {
	cfg.defaults()
	if ctx == nil {
		ctx = context.Background()
	}
	suite := bench.SupportedSuite()
	if len(suite) == 0 {
		return nil, fmt.Errorf("servebench: empty benchmark suite")
	}
	b := suite[0]

	dir, err := os.MkdirTemp("", "facc-servebench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := obs.New()
	st, err := store.Open(dir, tr.Metrics())
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		QueueDepth: cfg.QueueDepth,
		Workers:    cfg.Workers,
		Store:      st,
		Tracer:     tr,
		Options:    facc.Options{Harden: true},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(dctx)
		hs.Close()
		st.Close()
	}()

	// Variants differ only in NumTests, which changes the digest while
	// keeping every request synthesizable.
	makeReq := func(i int) facc.CompileRequest {
		return facc.CompileRequest{
			Name:          b.File,
			Source:        b.Source(),
			Target:        "ffta",
			Entry:         b.Entry,
			ProfileValues: b.ProfileValues,
			NumTests:      cfg.NumTests + i%cfg.Variants,
		}
	}

	rep := &ServeBenchReport{
		Requests:    cfg.Requests,
		Concurrency: cfg.Concurrency,
		QueueDepth:  cfg.QueueDepth,
		Workers:     cfg.Workers,
		Variants:    cfg.Variants,
	}
	var mu sync.Mutex
	var latencies []float64
	adapters := map[string]string{} // digest → adapter bytes seen
	consistent := true

	type response struct {
		State    string `json:"state"`
		Key      string `json:"key"`
		AdapterC string `json:"adapter_c"`
	}
	client := &http.Client{}
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				body, _ := json.Marshal(makeReq(i))
				start := time.Now()
				var resp response
				var status int
				// Retry shed responses like a well-behaved client; the
				// latency of a shed-then-retried request includes the
				// backoff — that is the user-visible cost of overload.
				for attempt := 0; attempt < 200; attempt++ {
					req, err := http.NewRequestWithContext(ctx, http.MethodPost,
						base+"/compile?wait=1", bytes.NewReader(body))
					if err != nil {
						status = 0
						break
					}
					req.Header.Set("Content-Type", "application/json")
					res, err := client.Do(req)
					if err != nil {
						status = 0
						break
					}
					data, _ := io.ReadAll(res.Body)
					res.Body.Close()
					status = res.StatusCode
					if status == http.StatusTooManyRequests {
						mu.Lock()
						rep.Shed429++
						rep.Retries++
						mu.Unlock()
						select {
						case <-ctx.Done():
						case <-time.After(20 * time.Millisecond):
							continue
						}
						break
					}
					json.Unmarshal(data, &resp)
					break
				}
				elapsed := float64(time.Since(start)) / float64(time.Millisecond)
				mu.Lock()
				if status == http.StatusOK && resp.State == "done" {
					rep.Completed++
					latencies = append(latencies, elapsed)
					if prev, ok := adapters[resp.Key]; ok {
						if prev != resp.AdapterC {
							consistent = false
						}
					} else {
						adapters[resp.Key] = resp.AdapterC
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
	rep.AdaptersConsistent = consistent

	c := tr.Metrics().Counters()
	rep.Deduped = c["serve.jobs_deduped"]
	rep.CacheHits = c["serve.cache_hits"]
	rep.Compiles = c["serve.jobs_completed"]

	sort.Float64s(latencies)
	q := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(math.Ceil(p*float64(len(latencies)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(latencies) {
			idx = len(latencies) - 1
		}
		return latencies[idx]
	}
	rep.LatencyMsP50 = q(0.50)
	rep.LatencyMsP90 = q(0.90)
	rep.LatencyMsP99 = q(0.99)
	rep.LatencyMsMax = q(1)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	if len(latencies) > 0 {
		rep.LatencyMsMean = sum / float64(len(latencies))
	}
	return rep, nil
}

// WriteJSON emits the report as indented JSON (the BENCH_serve.json
// artifact format).
func (r *ServeBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText prints the human-readable summary.
func (r *ServeBenchReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Serving benchmark: %d requests x %d clients over %d digests, queue=%d workers=%d\n",
		r.Requests, r.Concurrency, r.Variants, r.QueueDepth, r.Workers)
	fmt.Fprintf(w, "completed %d, failed %d, shed (429) %d, deduped %d, cache hits %d, compiles %d\n",
		r.Completed, r.Failed, r.Shed429, r.Deduped, r.CacheHits, r.Compiles)
	fmt.Fprintf(w, "wall %.2fs (%.1f req/s)  latency ms: p50=%.1f p90=%.1f p99=%.1f max=%.1f mean=%.1f\n",
		r.WallSeconds, r.Throughput, r.LatencyMsP50, r.LatencyMsP90,
		r.LatencyMsP99, r.LatencyMsMax, r.LatencyMsMean)
	if r.AdaptersConsistent {
		fmt.Fprintf(w, "adapters byte-identical across compiled/deduped/cached responses\n")
	} else {
		fmt.Fprintf(w, "WARNING: adapter bytes diverged for the same request digest\n")
	}
}
