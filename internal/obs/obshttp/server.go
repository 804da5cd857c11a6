// Package obshttp is FACC's live observability surface: an embedded HTTP
// server exposing the in-process tracer, metrics registry and
// candidate-event stream while a compilation (or a whole evaluation run)
// is underway.
//
// Endpoints:
//
//	/metrics        Prometheus text exposition of every counter/gauge/histogram
//	/status         live JSON: in-flight compilations, current stage,
//	                candidates tried/pruned, fuzz pass rate, uptime
//	/trace          Chrome trace_event download of the completed spans held
//	/journal        candidate-event stream as JSONL (when a stream is attached)
//	/debug/pprof/*  net/http/pprof profiling endpoints
//
// The server reads only snapshots (obs.Tracer and obs.Events are safe for
// concurrent use), so scraping never perturbs or blocks the pipeline.
// /trace and /journal show what the tracer and the stream still hold: in
// a CLI run everything, in faccd the requests in flight and those its
// flight recorder keeps.
package obshttp

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"facc/internal/faultinject"
	"facc/internal/obs"
	"facc/internal/obs/obsflag"
)

// Server exposes one tracer (and optionally one candidate-event stream)
// over HTTP.
type Server struct {
	Tracer *obs.Tracer
	// Events may be nil; /journal then returns 404, and /status costs
	// and search and the facc_ledger_* and facc_search_* /metrics
	// families are absent.
	Events *obs.Events

	start time.Time
}

// New returns a server over tr and ev (ev may be nil).
func New(tr *obs.Tracer, ev *obs.Events) *Server {
	return &Server{Tracer: tr, Events: ev, start: time.Now()}
}

// InFlight describes one live root span (one in-progress compilation).
type InFlight struct {
	Root string `json:"root"`
	// Stage is the most recently started span still open under this root
	// — "what is it doing right now".
	Stage string  `json:"stage"`
	AgeS  float64 `json:"age_s"`
}

// Status is the /status JSON document.
type Status struct {
	UptimeS  float64    `json:"uptime_s"`
	InFlight []InFlight `json:"in_flight"`
	// SpansCompleted counts the spans ended since start, released ones
	// included.
	SpansCompleted int `json:"spans_completed"`

	CandidatesTested int64   `json:"candidates_tested"`
	CandidatesPruned int64   `json:"candidates_pruned"`
	Survivors        int64   `json:"survivors"`
	Winners          int64   `json:"winners"`
	TestsRun         int64   `json:"tests_run"`
	FuzzPassRate     float64 `json:"fuzz_pass_rate"`

	// Robustness: candidates rejected by the panic shield and by the
	// per-candidate budget.
	CandidatePanics   int64 `json:"candidate_panics"`
	CandidateTimeouts int64 `json:"candidate_timeouts"`

	// Reference-oracle cache effectiveness. OraclePerTarget splits the
	// blended rate per accelerator target (the ROADMAP's ">50%
	// cross-target hit rate" goal is measured per target).
	OracleHits      int64                  `json:"oracle_hits"`
	OracleMisses    int64                  `json:"oracle_misses"`
	OracleHitRate   float64                `json:"oracle_hit_rate"`
	OraclePerTarget map[string]OracleStats `json:"oracle_per_target,omitempty"`

	// EventsRecorded counts the events recorded since start, released
	// ones included.
	EventsRecorded int64 `json:"journal_events"`

	// Costs is the synthesis cost ledger rolled up per target (useful vs
	// speculative vs shared work); present when the event stream has
	// booked a candidate account.
	Costs *obs.CostSummary `json:"costs,omitempty"`

	// Serve is populated when a compile service (faccd) feeds the
	// registry: admission queue health, shedding/drain counters and the
	// crash-safe adapter store's cache/corruption statistics.
	Serve *ServeStatus `json:"serve,omitempty"`

	// Fleet is populated when the replica runs as part of a sharded
	// fleet (faccd -peers): peer-table health, forwarding and failover
	// counters.
	Fleet *FleetStatus `json:"fleet,omitempty"`

	// Search is the search observatory's aggregate: funnel totals,
	// kill-depth distribution and the ranked discriminating inputs;
	// present when the event stream holds a binding candidate.
	Search *obs.SearchSummary `json:"search,omitempty"`

	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// OracleStats is one target's reference-oracle cache effectiveness.
type OracleStats struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// ServeStatus is the /status block for the faccd compile service.
type ServeStatus struct {
	QueueDepth    int64 `json:"queue_depth"`
	QueueCapacity int64 `json:"queue_capacity"`
	Workers       int64 `json:"workers"`
	WorkersBusy   int64 `json:"workers_busy"`
	Draining      bool  `json:"draining"`

	JobsAdmitted  int64 `json:"jobs_admitted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsShed      int64 `json:"jobs_shed"`
	JobsDeduped   int64 `json:"jobs_deduped"`
	CacheHits     int64 `json:"cache_hits"`
	HardCancels   int64 `json:"drain_hard_cancels"`

	// SLO: configured targets and the observed burn rate. BurnRate is
	// (violation rate) / (error budget); 1.0 means the budget is being
	// consumed exactly as fast as it accrues, >1 means the target is
	// being missed.
	SLOLatencyMS  float64 `json:"slo_latency_ms,omitempty"`
	SLOObjective  float64 `json:"slo_objective,omitempty"`
	SLOTotal      int64   `json:"slo_total,omitempty"`
	SLOViolations int64   `json:"slo_violations,omitempty"`
	SLOBurnRate   float64 `json:"slo_burn_rate,omitempty"`
	// FlightRetained counts requests currently held by the flight
	// recorder (slowest + failed), dumped at /debug/requests.
	FlightRetained int64 `json:"flight_retained,omitempty"`

	StoreHits        int64  `json:"store_hits"`
	StoreMisses      int64  `json:"store_misses"`
	StoreWrites      int64  `json:"store_writes"`
	StoreQuarantined int64  `json:"store_quarantined"`
	StoreBreaker     string `json:"store_breaker_state,omitempty"`

	// Store is the adapter log's internals; present when the store has
	// published its gauges.
	Store *StoreStatus `json:"store,omitempty"`
}

// FleetStatus is the /status block for a replica in a sharded fleet:
// the ring's live health view plus the forwarding and failover counters
// that describe how much of the node's traffic is remote and how the
// fleet is coping with peer death.
type FleetStatus struct {
	Peers        int64           `json:"peers"`
	PeersHealthy int64           `json:"peers_healthy"`
	PeerHealth   map[string]bool `json:"peer_health,omitempty"`

	HandledLocal  int64 `json:"handled_local"`
	Forwarded     int64 `json:"forwarded"`
	ForwardedIn   int64 `json:"forwarded_in"`
	Failovers     int64 `json:"forward_failovers"`
	DegradedLocal int64 `json:"degraded_local"`
	LoopRejected  int64 `json:"loop_rejected"`

	PeerEjections  int64 `json:"peer_ejections"`
	PeerRecoveries int64 `json:"peer_recoveries"`
}

// StoreStatus is the /status block for the crash-safe adapter store's
// append-only log: live records and dead bytes awaiting compaction,
// group commit activity, and recovery (torn tails cut, quarantines).
type StoreStatus struct {
	LiveRecords int64 `json:"live_records"`
	DeadBytes   int64 `json:"dead_bytes"`
	LogBytes    int64 `json:"log_bytes"`

	Commits       int64 `json:"commits"`
	CommitBatches int64 `json:"commit_batches"`
	Compactions   int64 `json:"compactions"`
	TornTails     int64 `json:"torn_tails"`

	QuarantinedFiles int64 `json:"quarantined_files"`
}

// BuildStatus assembles the live status snapshot served at /status. Its
// costs and search blocks are the event stream's Totals, so a read folds
// only the events of traces still open, however long the process has
// run.
func (s *Server) BuildStatus() Status {
	st := Status{
		UptimeS:        time.Since(s.start).Seconds(),
		InFlight:       []InFlight{},
		SpansCompleted: s.Tracer.NumSpans(),
		EventsRecorded: s.Events.Recorded(),
	}

	active := s.Tracer.Active()
	now := time.Since(s.Tracer.Start())
	type lane struct {
		root   obs.ActiveSpan
		deep   obs.ActiveSpan
		rooted bool
	}
	lanes := map[int64]*lane{}
	var order []int64
	for _, sp := range active {
		l := lanes[sp.Root]
		if l == nil {
			l = &lane{}
			lanes[sp.Root] = l
			order = append(order, sp.Root)
		}
		if sp.ID == sp.Root {
			l.root, l.rooted = sp, true
		}
		// Active() is ID-ordered, so the last span seen per lane is the
		// most recently started one — the current stage.
		l.deep = sp
	}
	for _, id := range order {
		l := lanes[id]
		root := l.deep
		if l.rooted {
			root = l.root
		}
		st.InFlight = append(st.InFlight, InFlight{
			Root:  root.Name,
			Stage: l.deep.Name,
			AgeS:  (now - root.Start).Seconds(),
		})
	}

	reg := s.Tracer.Metrics()
	st.Counters = reg.Counters()
	st.Gauges = reg.Gauges()
	st.CandidatesTested = st.Counters["synth.candidates_tested"]
	st.Survivors = st.Counters["synth.survivors"]
	st.Winners = st.Counters["synth.winners"]
	st.TestsRun = st.Counters["synth.tests_run"]
	for name, v := range st.Counters {
		if strings.HasPrefix(name, "binding.pruned.") {
			st.CandidatesPruned += v
		}
	}
	if st.CandidatesTested > 0 {
		st.FuzzPassRate = float64(st.Survivors) / float64(st.CandidatesTested)
	}
	st.CandidatePanics = st.Counters["synth.panics"]
	st.CandidateTimeouts = st.Counters["synth.candidate_timeouts"]
	st.OracleHits = st.Counters["synth.oracle_hits"]
	st.OracleMisses = st.Counters["synth.oracle_misses"]
	if total := st.OracleHits + st.OracleMisses; total > 0 {
		st.OracleHitRate = float64(st.OracleHits) / float64(total)
	}
	for name, v := range st.Counters {
		target, isHit := "", false
		switch {
		case strings.HasPrefix(name, "synth.oracle_hits."):
			target, isHit = strings.TrimPrefix(name, "synth.oracle_hits."), true
		case strings.HasPrefix(name, "synth.oracle_misses."):
			target = strings.TrimPrefix(name, "synth.oracle_misses.")
		default:
			continue
		}
		if st.OraclePerTarget == nil {
			st.OraclePerTarget = map[string]OracleStats{}
		}
		os := st.OraclePerTarget[target]
		if isHit {
			os.Hits = v
		} else {
			os.Misses = v
		}
		st.OraclePerTarget[target] = os
	}
	for target, os := range st.OraclePerTarget {
		if total := os.Hits + os.Misses; total > 0 {
			os.HitRate = float64(os.Hits) / float64(total)
			st.OraclePerTarget[target] = os
		}
	}
	n, costs, search := s.Events.Totals()
	if n > 0 {
		st.Costs = &costs
	}
	st.Search = search
	if cap, ok := st.Gauges["serve.queue_capacity"]; ok {
		st.Serve = &ServeStatus{
			QueueDepth:       int64(st.Gauges["serve.queue_depth"]),
			QueueCapacity:    int64(cap),
			Workers:          int64(st.Gauges["serve.workers"]),
			WorkersBusy:      int64(st.Gauges["serve.workers_busy"]),
			Draining:         st.Gauges["serve.draining"] != 0,
			JobsAdmitted:     st.Counters["serve.jobs_admitted"],
			JobsCompleted:    st.Counters["serve.jobs_completed"],
			JobsFailed:       st.Counters["serve.jobs_failed"],
			JobsShed:         st.Counters["serve.jobs_shed"],
			JobsDeduped:      st.Counters["serve.jobs_deduped"],
			CacheHits:        st.Counters["serve.cache_hits"],
			HardCancels:      st.Counters["serve.drain_hard_cancels"],
			StoreHits:        st.Counters["store.hits"],
			StoreMisses:      st.Counters["store.misses"],
			StoreWrites:      st.Counters["store.writes"],
			StoreQuarantined: st.Counters["store.corrupt_quarantined"],
			SLOLatencyMS:     st.Gauges["serve.slo_latency_ms"],
			SLOObjective:     st.Gauges["serve.slo_objective"],
			SLOTotal:         st.Counters["serve.slo_total"],
			SLOViolations:    st.Counters["serve.slo_violations"],
			SLOBurnRate:      st.Gauges["serve.slo_burn_rate"],
			FlightRetained:   int64(st.Gauges["serve.flight_retained"]),
		}
		if g, ok := st.Gauges["store.breaker.state"]; ok {
			st.Serve.StoreBreaker = faultinject.State(g).String()
		}
		if live, ok := st.Gauges["store.live_records"]; ok {
			st.Serve.Store = &StoreStatus{
				LiveRecords:      int64(live),
				DeadBytes:        int64(st.Gauges["store.dead_bytes"]),
				LogBytes:         int64(st.Gauges["store.log_bytes"]),
				Commits:          st.Counters["store.commits"],
				CommitBatches:    st.Counters["store.commit_batches"],
				Compactions:      st.Counters["store.compactions"],
				TornTails:        st.Counters["store.torn_tails"],
				QuarantinedFiles: int64(st.Gauges["store.quarantined"]),
			}
		}
	}
	if peers, ok := st.Gauges["fleet.peers"]; ok {
		st.Fleet = &FleetStatus{
			Peers:          int64(peers),
			PeersHealthy:   int64(st.Gauges["fleet.peers_healthy"]),
			HandledLocal:   st.Counters["fleet.handled_local"],
			Forwarded:      st.Counters["fleet.forwarded"],
			ForwardedIn:    st.Counters["fleet.forwarded_in"],
			Failovers:      st.Counters["fleet.forward_failovers"],
			DegradedLocal:  st.Counters["fleet.degraded_local"],
			LoopRejected:   st.Counters["fleet.loop_rejected"],
			PeerEjections:  st.Counters["fleet.peer_ejections"],
			PeerRecoveries: st.Counters["fleet.peer_recoveries"],
		}
		for name, g := range st.Gauges {
			if strings.HasPrefix(name, "fleet.peer_healthy.") {
				if st.Fleet.PeerHealth == nil {
					st.Fleet.PeerHealth = map[string]bool{}
				}
				st.Fleet.PeerHealth[strings.TrimPrefix(name, "fleet.peer_healthy.")] = g != 0
			}
		}
	}
	return st
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.index)
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/status", s.status)
	mux.HandleFunc("/trace", s.trace)
	mux.HandleFunc("/journal", s.journal)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("facc observability\n\n" +
		"/metrics        Prometheus exposition\n" +
		"/status         live pipeline status (JSON)\n" +
		"/trace          Chrome trace_event download\n" +
		"/journal        candidate-event stream (JSONL)\n" +
		"/debug/pprof/   Go profiling\n"))
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Tracer.Metrics().WritePrometheus(w)
	s.Events.WritePrometheus(w) // nil-safe; labeled facc_ledger_* and facc_search_* families
}

func (s *Server) status(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.BuildStatus())
}

func (s *Server) trace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="facc-trace.json"`)
	s.Tracer.WriteChromeTrace(w)
}

func (s *Server) journal(w http.ResponseWriter, r *http.Request) {
	if s.Events == nil {
		http.Error(w, "no event stream attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.Events.WriteJSONL(w)
}

// RegisterFlag installs -serve on fs, storing the address in f.Serve.
// Only binaries whose runs last long enough to be watched register it;
// facc, whose run takes milliseconds, does not, and so links no HTTP
// server.
func RegisterFlag(fs *flag.FlagSet, f *obsflag.Flags) {
	fs.StringVar(&f.Serve, "serve", "",
		"serve live observability endpoints (/metrics, /status, /trace, /debug/pprof) on this address, e.g. :9090")
}

// ServeFlags starts the live endpoints over f's sinks when -serve is
// set, printing the bound address to stderr; f.Finish stops them.
func ServeFlags(f *obsflag.Flags) error {
	if f.Serve == "" {
		return nil
	}
	addr, shutdown, err := Serve(f.Serve, f.Tracer(), f.Events())
	if err != nil {
		return fmt.Errorf("%s: -serve %s: %w", f.Prog(), f.Serve, err)
	}
	f.OnFinish(shutdown)
	fmt.Fprintf(os.Stderr, "%s: observability server on http://%s\n", f.Prog(), addr)
	return nil
}

// Serve binds addr (e.g. ":9090" or "127.0.0.1:0"), serves the handler in
// a background goroutine, and returns the bound address plus a shutdown
// function. The pipeline keeps running regardless of scrape traffic.
func Serve(addr string, tr *obs.Tracer, ev *obs.Events) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: New(tr, ev).Handler()}
	go hs.Serve(ln)
	return ln.Addr().String(), hs.Close, nil
}
