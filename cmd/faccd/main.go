// Command faccd is the FACC compile service: a daemon that accepts MiniC
// sources over HTTP, synthesizes accelerator adapters, and degrades
// gracefully under load instead of falling over.
//
// Usage:
//
//	faccd [-addr :8080] [-store faccd-store] [-queue 64] [-workers N]
//	      [-request-timeout 2m] [-candidate-timeout 50ms]
//	      [-drain-timeout 10s] [-tests 10] [-j N]
//	      [-slo-latency 1s] [-slo-objective 0.99] [-flight-recorder 32]
//	      [-store-quarantine-files 512] [-store-quarantine-age 168h]
//	      [-peer-id r0 -peers r0=http://h0:8080,r1=http://h1:8080,...]
//	      [-probe-interval 1s] [-failure-threshold 3]
//
// Endpoints:
//
//	POST /compile[?wait=1]  submit a compile request (JSON: source, target,
//	                        entry, profile, tests); 202 + job id, 429 when
//	                        the admission queue is full (Retry-After set),
//	                        503 while draining
//	GET  /jobs/{id}         job status and the synthesized adapter
//	GET  /healthz, /readyz  liveness / admission readiness
//	GET  /debug/requests    SLO flight recorder: slowest + failed requests
//	                        with span trees, candidate events and their
//	                        cost and search folds
//	GET  /metrics, /status, /trace, /debug/pprof  observability (obshttp)
//
// Tracing: every request is stamped with an X-Facc-Trace ID (client-set
// or generated) that joins the response header, span exports, the
// candidate events (and so the cost ledger) and /debug/requests.
//
// Robustness: identical in-flight requests share one compile
// (singleflight); finished adapters are memoized in a crash-safe
// content-addressed store that survives kill -9 (an append-only log
// whose torn tail is cut off on restart, checksum verification with
// quarantine — a torn write is recompiled, never served);
// SIGTERM/SIGINT drains gracefully: admission stops, queued and
// in-flight jobs finish up to -drain-timeout, then stragglers are
// hard-cancelled.
//
// Fleet mode: -peers names a static table of replicas (comma-separated
// id=url pairs; -peer-id is this replica's entry). Requests are routed
// by request-digest over a consistent-hash ring and forwarded once to
// each owner in turn: dead peers are ejected by health probes and
// forwarding failures, a failed forward fails over down the ring
// (degrading to local synthesis as the last resort), and an owner
// answers a cached digest from its store. /readyz reports not-ready
// while no healthy peer covers any shard range; /fleet/peers and
// /fleet/owners expose the live ring.
//
// Exit status: 0 after a clean drain, 1 on startup errors or a drain
// that needed hard cancellation.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"facc"
	"facc/internal/fleet"
	"facc/internal/obs"
	"facc/internal/server"
	"facc/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
	addrFile := flag.String("addr-file", "",
		"write the bound address to this file once listening (for scripts)")
	storeDir := flag.String("store", "faccd-store",
		"adapter store directory (crash-safe content-addressed cache)")
	storeQuarFiles := flag.Int("store-quarantine-files", 0,
		"keep at most this many quarantined-evidence files (0 = default 512)")
	storeQuarAge := flag.Duration("store-quarantine-age", 0,
		"discard quarantined evidence older than this (0 = default 168h)")
	queue := flag.Int("queue", 64,
		"admission queue depth; requests beyond it are shed with 429")
	workers := flag.Int("workers", 0, "concurrent compile workers (0 = GOMAXPROCS)")
	requestTimeout := flag.Duration("request-timeout", 2*time.Minute,
		"wall-clock budget per compile job")
	candidateTimeout := flag.Duration("candidate-timeout", 0,
		"budget per fuzzed binding candidate (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"how long a SIGTERM drain waits for in-flight jobs before hard-cancelling")
	tests := flag.Int("tests", 10, "default IO examples per candidate (requests may override)")
	jflag := flag.Int("j", 0, "IO cases of a binding candidate run in parallel per compile (0 = GOMAXPROCS)")
	sloLatency := flag.Duration("slo-latency", time.Second,
		"per-request latency SLO target; slower compiles count toward the burn rate")
	sloObjective := flag.Float64("slo-objective", 0.99,
		"fraction of requests that must meet the SLO (burn rate = violation rate / error budget)")
	flightRec := flag.Int("flight-recorder", 32,
		"retain this many slowest and failed requests (full spans and events) at /debug/requests; -1 disables")
	peerID := flag.String("peer-id", "",
		"this replica's ID in the fleet peer table (requires -peers)")
	peersFlag := flag.String("peers", "",
		"static fleet peer table as comma-separated id=url pairs; empty runs single-node")
	probeInterval := flag.Duration("probe-interval", time.Second,
		"fleet health-probe period (peer death is detected within a few intervals)")
	failureThreshold := flag.Int("failure-threshold", 3,
		"consecutive probe/forward failures that eject a peer from the ring")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: faccd [flags] (takes no arguments)\n")
		flag.PrintDefaults()
		os.Exit(1)
	}

	opts := facc.Options{
		NumTests:         *tests,
		Workers:          *jflag,
		CandidateTimeout: *candidateTimeout,
	}

	tr := obs.New()
	st, err := store.OpenOptions(*storeDir, tr.Metrics(), store.Options{
		QuarantineMaxFiles: *storeQuarFiles,
		QuarantineMaxAge:   *storeQuarAge,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "faccd: %v\n", err)
		os.Exit(1)
	}

	srv := server.New(server.Config{
		QueueDepth:     *queue,
		Workers:        *workers,
		RequestTimeout: *requestTimeout,
		Store:          st,
		Tracer:         tr,
		Events:         obs.NewEvents(),
		FlightRecorder: *flightRec,
		SLOLatency:     *sloLatency,
		SLOObjective:   *sloObjective,
		Options:        opts,
	})

	// Fleet mode: wrap the local server in the routing/health layer.
	// The peer table is static; health is the only dynamic part.
	handler := srv.Handler()
	var node *fleet.Node
	if *peersFlag != "" {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faccd: -peers: %v\n", err)
			os.Exit(1)
		}
		if *peerID == "" {
			fmt.Fprintf(os.Stderr, "faccd: -peers requires -peer-id\n")
			os.Exit(1)
		}
		node = fleet.New(fleet.Config{
			Self:             *peerID,
			Peers:            peers,
			Local:            srv,
			Tracer:           tr,
			ProbeInterval:    *probeInterval,
			FailureThreshold: *failureThreshold,
			ForwardTimeout:   *requestTimeout,
		})
		handler = node.Handler()
	}

	// Install the signal handler before listening: once -addr-file is
	// written or /readyz answers, a SIGTERM must drain, not kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faccd: %v\n", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if node != nil {
		fmt.Fprintf(os.Stderr, "faccd: serving on http://%s as fleet peer %q (store %s, queue %d)\n",
			bound, *peerID, st.Dir(), *queue)
	} else {
		fmt.Fprintf(os.Stderr, "faccd: serving on http://%s (store %s, queue %d)\n",
			bound, st.Dir(), *queue)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "faccd: %v\n", err)
			os.Exit(1)
		}
	}
	hs := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "faccd: %v\n", err)
		os.Exit(1)
	}
	stop() // a second signal now kills immediately

	if node != nil {
		node.Close() // stop probing first; peers will eject us as we stop answering
	}
	fmt.Fprintf(os.Stderr, "faccd: draining (up to %s)...\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)

	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	hs.Shutdown(hctx)
	if err := st.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "faccd: closing store: %v\n", err)
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "faccd: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "faccd: drained cleanly")
}

// parsePeers decodes the -peers table: comma-separated id=url pairs.
func parsePeers(s string) (map[string]string, error) {
	peers := map[string]string{}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, url, ok := strings.Cut(pair, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("malformed pair %q (want id=url)", pair)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate peer ID %q", id)
		}
		peers[id] = strings.TrimSuffix(url, "/")
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("empty peer table")
	}
	return peers, nil
}
