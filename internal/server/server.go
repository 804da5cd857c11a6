// Package server is faccd's compile service: it accepts MiniC
// sources over HTTP, runs them through the FACC pipeline, and degrades
// gracefully instead of falling over. The robustness mechanisms, in the
// order a request meets them:
//
//   - Admission control: a bounded queue. When it is full the request is
//     shed immediately with 429 + Retry-After — the service stays
//     responsive under overload rather than accumulating unbounded work.
//   - Singleflight deduplication: requests with the same content digest
//     (facc.CompileRequest.Digest) attach to the in-flight job instead of
//     compiling twice.
//   - Memoization: completed adapters are served from the crash-safe
//     store (internal/store) without recompiling, and every facc-backed
//     compile shares one oracle cache, so a program's reference runs
//     are interpreted once per daemon, not once per request (a request
//     for another target or tolerance reuses all of them).
//   - Budgets: every job runs under the server's base context with a
//     per-request deadline, so one pathological source cannot pin a
//     worker forever.
//   - Graceful drain: on SIGTERM the daemon stops admitting (503 /
//     /readyz turns not-ready), finishes queued and in-flight jobs up to
//     a drain deadline, then hard-cancels stragglers via context.
//
// Endpoints (on top of the obshttp observability mux — /metrics,
// /status, /trace, /journal, /debug/pprof):
//
//	POST /compile         submit a compile job (JSON facc.CompileRequest);
//	                      202 + job id, or the finished job with ?wait=1
//	GET  /jobs/{id}       job status / result
//	GET  /healthz         process liveness (200 while the process runs)
//	GET  /readyz          admission readiness (503 while draining)
//
// /compile and /jobs/{id} answer with the job as one line of compact
// JSON and its Content-Length; data after a request's JSON object is a
// 400.
//
// Metrics: serve.jobs_admitted/_completed/_failed/_shed/_deduped,
// serve.cache_hits, serve.queue_depth, serve.workers_busy,
// serve.draining, serve.drain_hard_cancels, serve.oracle_resets (shared
// oracle caches replaced for outgrowing their budget) and the
// serve.latency_ms histogram, all visible in /status (serve block) and
// /metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"facc"
	"facc/internal/obs"
	"facc/internal/obs/obshttp"
	"facc/internal/store"
)

// CompileResult is what one job produces: a synthesized adapter, or a
// classified synthesis failure (FailReason), which is a valid outcome —
// not every function has an accelerator-shaped replacement.
type CompileResult struct {
	AdapterC   string
	Function   string
	Sig        string // user-visible signature of the replaced function
	FailReason string
}

// CompileFunc executes one admitted request. Tests substitute stubs; the
// daemon uses the facc-backed default.
type CompileFunc func(ctx context.Context, req facc.CompileRequest) (CompileResult, error)

// Config assembles a Server. Zero values get production defaults.
type Config struct {
	// QueueDepth bounds admitted-but-not-started jobs (default 64).
	// Requests beyond it are shed with 429.
	QueueDepth int
	// Workers is the number of concurrent compile workers (default
	// GOMAXPROCS).
	Workers int
	// RequestTimeout bounds one job's compile wall clock (default 2m).
	RequestTimeout time.Duration
	// Store, when non-nil, memoizes adapters across requests and
	// restarts.
	Store *store.Store
	// Tracer backs /metrics, /status and /trace. Required (New creates
	// one when nil).
	Tracer *obs.Tracer
	// Events, when non-nil, records the candidate-event stream, scoped
	// per request by trace ID: /journal serves it, /status gains the
	// costs and search blocks, /metrics the facc_ledger_* and
	// facc_search_* families, and flight records carry each retained
	// request's events with their cost and search folds.
	Events *obs.Events
	// FlightRecorder bounds how many slowest and how many failed
	// requests are retained with full span trees and events at
	// /debug/requests (default 32 per class; <0 disables).
	FlightRecorder int
	// SLOLatency is the per-request latency objective (default 1s): a
	// slower compile counts as an SLO violation.
	SLOLatency time.Duration
	// SLOObjective is the target success fraction (default 0.99): the
	// burn rate in /status and /metrics is the violation rate divided by
	// the error budget 1-SLOObjective.
	SLOObjective float64
	// Options is the standing compile configuration for the default
	// CompileFunc (workers, candidate timeout, test count).
	// Its sinks and its Oracle are replaced by the server's own.
	Options facc.Options
	// Compile overrides the facc-backed compile (tests).
	Compile CompileFunc
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle: Queued → Running → Done | Failed. Cached store hits are
// born Done.
const (
	Queued  JobState = "queued"
	Running JobState = "running"
	Done    JobState = "done"
	Failed  JobState = "failed"
)

// Job is one admitted compile. Fields are guarded by the server mutex;
// done closes when the job reaches a terminal state.
type Job struct {
	ID     string
	Key    string
	Trace  string // request trace ID; joins spans/events/exemplars
	Req    facc.CompileRequest
	State  JobState
	Cached bool
	Result CompileResult
	Err    string

	enqueued time.Time
	done     chan struct{}
}

// Server is the compile service. Create with New, expose Handler, stop
// with Drain.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	obs     *obshttp.Server
	compile CompileFunc

	flight *FlightRecorder

	// oracle is the reference-run cache every facc-backed compile
	// shares; oracleCache replaces it once it outgrows oracleBudget.
	oracleMu sync.Mutex
	oracle   *facc.OracleCache

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *Job
	wg    sync.WaitGroup

	busy atomic.Int64
	// emaCompileMS is an exponential moving average of recent compile
	// execution times (float64 bits; excludes queue wait). It sizes the
	// Retry-After hint on shed requests.
	emaCompileMS atomic.Uint64

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job // by ID, bounded by history eviction
	active   map[string]*Job // by digest, queued or running
	history  []string        // terminal job IDs, oldest first
	nextID   int
}

// MaxRequestBytes caps a compile request's body, here and at a fleet
// entry: about 60 times the largest corpus source, so no client can make
// the daemon buffer an arbitrary upload.
const MaxRequestBytes = 1 << 20

// bufPool recycles the buffers a compile request is read into and its
// reply is encoded into, so neither grows a fresh buffer per request. It
// holds empty buffers: putBuf resets each one it takes back.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps the buffers returned to bufPool: one large body is
// not kept resident for the requests after it.
const maxPooledBuf = 64 << 10

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		buf.Reset()
		bufPool.Put(buf)
	}
}

// decodeRequest reads r's body once, up to MaxRequestBytes, and decodes
// it as one JSON compile request; data after the object is an error.
func decodeRequest(w http.ResponseWriter, r *http.Request, req *facc.CompileRequest) error {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBytes)); err != nil {
		return err
	}
	// Unmarshal copies every string it decodes, so req keeps nothing of
	// buf once it returns.
	return json.Unmarshal(buf.Bytes(), req)
}

// BadBody answers a request whose body could not be read or decoded:
// 413 past MaxRequestBytes, 400 otherwise.
func BadBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, fmt.Sprintf("request body over %d bytes", MaxRequestBytes),
			http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
}

// historyCap bounds how many finished jobs stay queryable at /jobs/{id};
// older ones are evicted so a long-lived daemon's memory stays flat.
const historyCap = 1024

// oracleBudget bounds the shared oracle cache (OracleCache.Bytes): a
// compile that starts while the cache holds more gets a fresh one. One
// cache holds 0.71 MB after all 75 corpus pairs, so 16 MiB keeps
// several corpora of programs warm. A variable so tests can lower it.
var oracleBudget int64 = 16 << 20

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.New()
	}
	if cfg.SLOLatency <= 0 {
		cfg.SLOLatency = time.Second
	}
	if cfg.SLOObjective <= 0 || cfg.SLOObjective >= 1 {
		cfg.SLOObjective = 0.99
	}
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Tracer.Metrics(),
		obs:    obshttp.New(cfg.Tracer, cfg.Events),
		queue:  make(chan *Job, cfg.QueueDepth),
		jobs:   map[string]*Job{},
		active: map[string]*Job{},
		oracle: facc.NewOracleCache(),
	}
	if cfg.FlightRecorder >= 0 {
		s.flight = NewFlightRecorder(cfg.FlightRecorder)
	}
	s.compile = cfg.Compile
	if s.compile == nil {
		s.compile = s.faccCompile
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.reg.Gauge("serve.queue_capacity").Set(float64(cfg.QueueDepth))
	s.reg.Gauge("serve.workers").Set(float64(cfg.Workers))
	s.reg.Gauge("serve.queue_depth").Set(0)
	s.reg.Gauge("serve.draining").Set(0)
	s.reg.Gauge("serve.slo_latency_ms").Set(float64(cfg.SLOLatency) / float64(time.Millisecond))
	s.reg.Gauge("serve.slo_objective").Set(cfg.SLOObjective)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// faccCompile is the production CompileFunc: the full pipeline with the
// server's standing options, shared tracer and event stream, and shared
// oracle cache.
func (s *Server) faccCompile(ctx context.Context, req facc.CompileRequest) (CompileResult, error) {
	opts := s.cfg.Options
	opts.Trace = s.cfg.Tracer
	opts.Events = s.cfg.Events
	opts.Oracle = s.oracleCache()
	res, err := facc.CompileRequestContext(ctx, req, opts)
	if err != nil {
		return CompileResult{}, err
	}
	if !res.OK() {
		return CompileResult{FailReason: res.FailReason()}, nil
	}
	return CompileResult{AdapterC: res.AdapterC(), Function: res.Function(), Sig: res.Sig()}, nil
}

// oracleCache returns the shared oracle cache for a compile that starts
// now, first replacing it with an empty one when it holds more than
// oracleBudget. A compile already running keeps the cache it started
// with; sharing is exact, so which cache a compile gets never changes
// its result, only how much it reinterprets.
func (s *Server) oracleCache() *facc.OracleCache {
	s.oracleMu.Lock()
	defer s.oracleMu.Unlock()
	if s.oracle.Bytes() > oracleBudget {
		s.oracle = facc.NewOracleCache()
		s.reg.Counter("serve.oracle_resets").Inc()
	}
	return s.oracle
}

// Handler returns the service mux: compile/job/health routes layered
// over the shared observability endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	mux.Handle("/", s.obs.Handler())
	return mux
}

// handleDebugRequests dumps the flight recorder: the retained slowest and
// failed requests, each joined by trace ID to its span tree, its
// candidate events and their cost and search folds as it is read.
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	if s.flight == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	slowest, failed := s.flight.Records()
	slowest, failed = s.join(slowest), s.join(failed)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{
		"slo_latency_ms": float64(s.cfg.SLOLatency) / float64(time.Millisecond),
		"slo_objective":  s.cfg.SLOObjective,
		"slowest":        slowest,
		"failed":         failed,
	})
}

// handleCompile admits one request: validate → cache → dedup → enqueue,
// shedding with 429 when the queue is full and 503 while draining.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a JSON compile request", http.StatusMethodNotAllowed)
		return
	}
	var req facc.CompileRequest
	if err := decodeRequest(w, r, &req); err != nil {
		BadBody(w, err)
		return
	}
	if err := req.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := req.Digest()

	// Every request carries a trace ID — the client's X-Facc-Trace when
	// supplied and well-formed, a fresh one otherwise. It is echoed in
	// the response header and stamps every span and event the request
	// causes. A hostile header (over-long or outside [A-Za-z0-9._-]) is
	// replaced, not propagated: the ID rides verbatim in Prometheus
	// exemplar lines, the /journal JSONL and persisted store entries,
	// all of which it could otherwise pollute. Deduped requests adopt
	// the in-flight job's ID (one compile, one trace).
	trace := r.Header.Get("X-Facc-Trace")
	if !obs.ValidTraceID(trace) {
		trace = obs.NewTraceID()
	}

	// Store first: a finished adapter needs no queue slot at all.
	if st := s.cfg.Store; st != nil {
		if e, ok := st.Get(key); ok {
			s.reg.Counter("serve.cache_hits").Inc()
			job := s.registerCached(key, trace, req, e)
			w.Header().Set("X-Facc-Cache", "hit")
			s.respond(w, r, job)
			return
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "10")
		http.Error(w, "draining: not admitting new work", http.StatusServiceUnavailable)
		return
	}
	if job, ok := s.active[key]; ok {
		s.mu.Unlock()
		s.reg.Counter("serve.jobs_deduped").Inc()
		w.Header().Set("X-Facc-Dedup", "true")
		s.respond(w, r, job)
		return
	}
	job := &Job{
		ID:       "j" + strconv.Itoa(s.nextID),
		Key:      key,
		Trace:    trace,
		Req:      req,
		State:    Queued,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	// The job holds its trace from admission until it finishes, so a
	// fleet entry that relayed nothing leaves its own spans to the job.
	s.holdTrace(trace)
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		s.releaseTrace(trace)
		s.reg.Counter("serve.jobs_shed").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, fmt.Sprintf("queue full (%d jobs): shedding load, retry later",
			s.cfg.QueueDepth), http.StatusTooManyRequests)
		return
	}
	s.nextID++
	s.jobs[job.ID] = job
	s.active[key] = job
	s.mu.Unlock()
	s.reg.Counter("serve.jobs_admitted").Inc()
	s.reg.Gauge("serve.queue_depth").Set(float64(len(s.queue)))
	s.respond(w, r, job)
}

// retryAfterSeconds estimates when a shed client will plausibly find a
// queue slot: the current backlog divided across the worker pool, paced
// by the moving average of recent compile times. A constant hint herds
// every shed client back at the same instant and re-sheds most of them;
// a depth-scaled hint spreads the retry wave to roughly when capacity
// exists. Clamped to [1, 60] so a pathological EMA cannot tell clients
// to wait forever (or to hammer).
func (s *Server) retryAfterSeconds() int {
	emaMS := math.Float64frombits(s.emaCompileMS.Load())
	if emaMS <= 0 {
		emaMS = 1000 // no completed compile yet: assume a second
	}
	backlog := len(s.queue) + int(s.busy.Load())
	secs := int(math.Ceil(float64(backlog) * emaMS / float64(s.cfg.Workers) / 1000))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// observeCompileTime folds one compile's execution time into the EMA
// behind Retry-After (α = 0.3: reactive to load shifts, stable against
// one outlier).
func (s *Server) observeCompileTime(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	for {
		old := s.emaCompileMS.Load()
		ema := math.Float64frombits(old)
		if ema <= 0 {
			ema = ms
		} else {
			ema = 0.7*ema + 0.3*ms
		}
		if s.emaCompileMS.CompareAndSwap(old, math.Float64bits(ema)) {
			s.reg.Gauge("serve.compile_ema_ms").Set(ema)
			return
		}
	}
}

// registerCached files a store hit as an already-done job so /jobs/{id}
// works uniformly.
func (s *Server) registerCached(key, trace string, req facc.CompileRequest, e store.Entry) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	job := &Job{
		ID:       "j" + strconv.Itoa(s.nextID),
		Key:      key,
		Trace:    trace,
		Req:      req,
		State:    Done,
		Cached:   true,
		Result:   CompileResult{AdapterC: e.AdapterC, Function: e.Function, Sig: e.Sig},
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	s.nextID++
	s.jobs[job.ID] = job
	s.retire(job)
	close(job.done)
	return job
}

// retire files a terminal job in the bounded history, evicting the
// oldest entry past historyCap. The job keeps only what /jobs/{id} and
// the flight recorder read: of its request, the target. Caller holds
// s.mu.
func (s *Server) retire(job *Job) {
	job.Req = facc.CompileRequest{Target: job.Req.Target}
	s.history = append(s.history, job.ID)
	if len(s.history) > historyCap {
		delete(s.jobs, s.history[0])
		s.history = s.history[1:]
	}
}

// worker drains the admission queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	busy := s.reg.Counter("serve.worker_jobs")
	for job := range s.queue {
		s.reg.Gauge("serve.queue_depth").Set(float64(len(s.queue)))
		busy.Inc()
		s.run(job)
	}
}

// run executes one job under the per-request budget and finalizes it.
func (s *Server) run(job *Job) {
	s.reg.Gauge("serve.workers_busy").Set(float64(s.busy.Add(1)))
	defer func() {
		s.reg.Gauge("serve.workers_busy").Set(float64(s.busy.Add(-1)))
	}()
	s.mu.Lock()
	job.State = Running
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
	ctx = obs.WithTraceID(ctx, job.Trace)
	started := time.Now()
	res, err := s.compile(ctx, job.Req)
	s.observeCompileTime(time.Since(started))
	cancel()
	// The compile has recorded everything it will under the trace.
	s.cfg.Events.Close(job.Trace)

	s.mu.Lock()
	job.Result = res
	switch {
	case err != nil:
		job.State = Failed
		job.Err = err.Error()
	case res.FailReason != "":
		job.State = Failed
	default:
		job.State = Done
	}
	state := job.State
	s.mu.Unlock()

	// Persist before dropping the dedup registration: a same-digest
	// request arriving in between must find either the in-flight job or
	// the stored adapter, never a gap that recompiles.
	if state == Done {
		if st := s.cfg.Store; st != nil {
			st.Put(job.Key, store.Entry{
				Target:   job.Req.Target,
				Function: res.Function,
				Sig:      res.Sig,
				AdapterC: res.AdapterC,
				Trace:    job.Trace,
			})
		}
		s.reg.Counter("serve.jobs_completed").Inc()
	} else {
		s.reg.Counter("serve.jobs_failed").Inc()
	}
	s.mu.Lock()
	delete(s.active, job.Key)
	s.retire(job)
	s.mu.Unlock()
	latMs := float64(time.Since(job.enqueued)) / float64(time.Millisecond)
	// The request's trace ID rides as the bucket's exemplar: a latency
	// spike in /metrics points at a concrete joinable request.
	s.reg.Histogram("serve.latency_ms", obs.DurationBucketsMs).
		ObserveExemplar(latMs, job.Trace)
	s.observeSLO(job, state, latMs)
	close(job.done)
}

// observeSLO books one executed job against the latency/error objective
// and retains it in the flight recorder. Failed jobs always enter the
// failure ring; every job competes for the slowest list.
func (s *Server) observeSLO(job *Job, state JobState, latMs float64) {
	violation := state == Failed ||
		latMs > float64(s.cfg.SLOLatency)/float64(time.Millisecond)
	total := s.reg.Counter("serve.slo_total")
	total.Inc()
	viol := s.reg.Counter("serve.slo_violations")
	if violation {
		viol.Inc()
	}
	// Burn rate: the fraction of the error budget (1-objective) the
	// observed violation rate consumes. >1 means the SLO is being missed.
	budget := 1 - s.cfg.SLOObjective
	if n := total.Value(); n > 0 && budget > 0 {
		rate := float64(viol.Value()) / float64(n)
		s.reg.Gauge("serve.slo_burn_rate").Set(rate / budget)
	}
	if s.flight == nil {
		s.releaseTrace(job.Trace)
		return
	}
	// Only the job's identity and outcome are kept here; join fills the
	// rest by trace ID when /debug/requests is read, so a job pays
	// nothing for the daemon's recorded history. A kept record takes
	// over the job's hold on its trace; an evicted one lets go of its
	// own.
	s.mu.Lock()
	rec := &RequestRecord{
		Trace:        job.Trace,
		JobID:        job.ID,
		Digest:       job.Key,
		Target:       job.Req.Target,
		State:        string(state),
		Err:          job.Err,
		LatencyMS:    latMs,
		SLOViolation: violation,
	}
	s.mu.Unlock()
	kept, evicted := s.flight.Observe(rec)
	if !kept {
		s.releaseTrace(job.Trace)
	}
	for _, r := range evicted {
		s.releaseTrace(r.Trace)
	}
	slow, failed := s.flight.Len()
	s.reg.Gauge("serve.flight_retained").Set(float64(slow + failed))
}

// holdTrace keeps the spans and events recorded under trace until a
// matching releaseTrace. A job holds its trace from admission; its
// flight record, if the recorder keeps one, until eviction.
func (s *Server) holdTrace(trace string) {
	s.cfg.Tracer.Hold(trace)
	s.cfg.Events.Hold(trace)
}

// releaseTrace lets go of one hold on trace: once none is left, its
// spans and events are dropped. The events were folded into the
// stream's running totals when the job closed the trace.
func (s *Server) releaseTrace(trace string) {
	s.cfg.Tracer.Release(trace)
	s.cfg.Events.Release(trace)
}

// join returns copies of retained records filled with everything the
// tracer and the event stream hold under each record's trace ID, and the
// cost and search folds of those events. A trace ID that a client reused
// shows every event recorded under it while a request or a record held
// it.
func (s *Server) join(recs []*RequestRecord) []*RequestRecord {
	out := make([]*RequestRecord, len(recs))
	for i, r := range recs {
		rec := *r
		rec.Spans = spanRecords(s.cfg.Tracer.TraceSpans(r.Trace))
		if r.Trace != "" {
			rec.Events = s.cfg.Events.Scoped(r.Trace).Snapshot()
			if n, sum := obs.FoldCosts(rec.Events); n > 0 {
				rec.Costs = &sum
			}
			rec.Search = obs.FoldSearch(rec.Events)
		}
		out[i] = &rec
	}
	return out
}

// jobJSON is the wire form of a job.
type jobJSON struct {
	ID         string  `json:"id"`
	State      string  `json:"state"`
	Key        string  `json:"key"`
	Trace      string  `json:"trace,omitempty"`
	Target     string  `json:"target"`
	Function   string  `json:"function,omitempty"`
	Sig        string  `json:"sig,omitempty"`
	AdapterC   string  `json:"adapter_c,omitempty"`
	FailReason string  `json:"fail_reason,omitempty"`
	Error      string  `json:"error,omitempty"`
	Cached     bool    `json:"cached,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

func (s *Server) jobView(job *Job) jobJSON {
	s.mu.Lock()
	defer s.mu.Unlock()
	return jobJSON{
		ID:         job.ID,
		State:      string(job.State),
		Key:        job.Key,
		Trace:      job.Trace,
		Target:     job.Req.Target,
		Function:   job.Result.Function,
		Sig:        job.Result.Sig,
		AdapterC:   job.Result.AdapterC,
		FailReason: job.Result.FailReason,
		Error:      job.Err,
		Cached:     job.Cached,
		ElapsedMS:  float64(time.Since(job.enqueued)) / float64(time.Millisecond),
	}
}

// respond writes the job's current state as one line of compact JSON
// with its Content-Length; with ?wait=1 it first blocks until the job
// finishes (or the client goes away, or drain hard-cancel fires — the
// job itself then reports what happened).
func (s *Server) respond(w http.ResponseWriter, r *http.Request, job *Job) {
	wait := r.URL.Query().Get("wait")
	if wait == "1" || wait == "true" {
		select {
		case <-job.done:
		case <-r.Context().Done():
			return // client gone; the job keeps running
		}
	}
	view := s.jobView(job)
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	// A job view holds strings, a bool and a finite float: it always
	// encodes.
	_ = json.NewEncoder(buf).Encode(view)
	code := http.StatusOK
	if view.State == string(Queued) || view.State == string(Running) {
		code = http.StatusAccepted
		w.Header().Set("Location", "/jobs/"+job.ID)
	}
	if view.Trace != "" {
		w.Header().Set("X-Facc-Trace", view.Trace)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	s.respond(w, r, job)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admitting work and waits for queued and in-flight jobs to
// finish. If ctx expires first, outstanding compiles are hard-cancelled
// through the base context (they finish promptly as Failed jobs — the
// pipeline is cancellation-aware end to end) and Drain reports the
// deadline error. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	if first {
		s.draining = true
		s.reg.Gauge("serve.draining").Set(1)
		close(s.queue)
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.reg.Counter("serve.drain_hard_cancels").Inc()
		s.baseCancel()
		<-finished
		return fmt.Errorf("server: drain deadline: %w", ctx.Err())
	}
}

// ErrDraining marks rejected work during shutdown (exposed for clients
// embedding the server).
var ErrDraining = errors.New("server: draining")
