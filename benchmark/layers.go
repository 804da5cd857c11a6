package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"facc"
	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/binding"
	"facc/internal/codegen"
	"facc/internal/core"
	"facc/internal/fft"
	"facc/internal/iogen"
	"facc/internal/minic"
	"facc/internal/rangecheck"
	"facc/internal/store"
	"facc/internal/synth"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the exported function it calls.
type span struct {
	Name   string
	Req    string // the request (pair) the call served
	Parent int    // id of the enclosing span, 0 for a root
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. Span ids are 1-based
// indexes into spans.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) begin(name, req string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(r.origin)})
	return len(r.spans)
}

func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := map[string]time.Duration{}
	for i, s := range r.spans {
		kids := children[i+1]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// writeChrome writes the spans as a Chrome trace_event file.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(r.spans))
	for i, s := range r.spans {
		evs[i] = event{Name: s.Name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"req": s.Req, "id": i + 1, "parent": s.Parent}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// synthSeed is synth.Options' default fuzz seed, so the iogen and accel
// probes draw the cases a compile draws.
const synthSeed = 424242

// layerSums accumulates one replay over a set of pairs.
type layerSums struct {
	pairs                                     int
	compile, traced, parse, check, cold, warm time.Duration
	analysis, binding, iogen, accel           time.Duration
	rangecheck, codegen                       time.Duration
	bindings, cases, runs, emitted, checks    int
	adapterBytes                              int
	allocBytes                                uint64
	counters                                  map[string]int64
	perPair                                   map[string]time.Duration // untraced compile time
	adapters                                  map[string]string        // supported pair id -> adapter
}

// compileLayers is the traced run of a compile workload: it replays every
// pair in-process at Workers=1 and times each layer through its exported
// entry point. shared gives each program's targets one oracle cache, as
// library-warm does; otherwise every compile starts with an empty one.
// It then measures the store layer on the adapters the pairs produce,
// committed and looked up the way faccd does.
func compileLayers(e *env, r *result, pairs []pair, shared bool) (*layerSums, error) {
	ls, err := replayCompiles(e, r, pairs, shared)
	if err != nil {
		return nil, err
	}
	var ops []storeOp
	for _, p := range filterPairs(pairs, true) {
		ops = append(ops, storeOp{key: digest(p.request()), put: true, entry: entryFor(p, ls.adapters[p.id()])})
	}
	for _, op := range append([]storeOp(nil), ops...) {
		op.put = false
		ops = append(ops, op)
	}
	st, err := storeReplay(e, r, ops)
	if err != nil {
		return nil, err
	}
	addStoreLayer(r, st)
	return ls, nil
}

// replayCompiles profiles and replays the pairs, adds the compile-layer
// metrics, and writes the CPU profile.
func replayCompiles(e *env, r *result, pairs []pair, shared bool) (*layerSums, error) {
	prof, err := os.Create(filepath.Join(e.traces, r.Workload+".pprof"))
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	ls := &layerSums{counters: map[string]int64{}, perPair: map[string]time.Duration{},
		adapters: map[string]string{}}
	groups := [][]pair{}
	for _, g := range byProgram(pairs) {
		if shared {
			groups = append(groups, g)
			continue
		}
		for _, p := range g {
			groups = append(groups, []pair{p})
		}
	}
	for _, g := range groups {
		// One cache per measured path, so each path sees the same cold state.
		caches := [3]*facc.OracleCache{facc.NewOracleCache(), facc.NewOracleCache(), facc.NewOracleCache()}
		for _, p := range g {
			if err := replayPair(e, r, ls, p, caches); err != nil {
				pprof.StopCPUProfile()
				return nil, err
			}
		}
	}
	pprof.StopCPUProfile()
	addCompileLayers(r, ls)
	if err := writeProfile(e, r.Workload, prof.Name()); err != nil {
		return nil, err
	}
	return ls, nil
}

// replayPair measures one pair: the untraced library compile, the same
// compile with Options.Trace for its counters, the pipeline re-run stage
// by stage (synthesis twice: cold, then warm on the now-full oracle), and
// the layers inside synthesis called on their own.
func replayPair(e *env, r *result, ls *layerSums, p pair, caches [3]*facc.OracleCache) error {
	rec := e.rec
	req := p.request()
	root := rec.begin("pair", p.id(), 0)
	defer rec.end(root)
	opts := facc.Options{Entry: req.Entry, ProfileValues: req.ProfileValues, Workers: 1}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := rec.begin("core.compile", p.id(), root)
	opts.Oracle = caches[0]
	res, err := facc.CompileContext(e.ctx, req.Name, req.Source, req.Target, opts)
	d := rec.end(id)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	ls.pairs++
	ls.compile += d
	ls.perPair[p.id()] = d
	ls.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	r.check(p.id(), p.check(res.AdapterC(), res.FailReason()))

	tr := facc.NewTracer()
	opts.Oracle, opts.Trace = caches[1], tr
	id = rec.begin("core.compile.traced", p.id(), root)
	res, err = facc.CompileContext(e.ctx, req.Name, req.Source, req.Target, opts)
	ls.traced += rec.end(id)
	if err != nil {
		return err
	}
	r.check(p.id()+" traced", p.check(res.AdapterC(), res.FailReason()))
	for name, v := range tr.Metrics().Counters() {
		ls.counters[name] += v
	}

	rp := rec.begin("replay", p.id(), root)
	id = rec.begin("minic.parse", p.id(), rp)
	f, err := minic.Parse(req.Name, req.Source)
	ls.parse += rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("minic.check", p.id(), rp)
	err = minic.Check(f)
	ls.check += rec.end(id)
	if err != nil {
		return err
	}
	fn := f.Func(req.Entry)
	spec, err := accel.SpecByName(req.Target)
	if err != nil || fn == nil {
		return fmt.Errorf("%s: no entry or target: %v", p.id(), err)
	}
	profile := core.BuildProfile(req.ProfileValues)
	sopts := synth.Options{Workers: 1, Oracle: caches[2]}
	id = rec.begin("synth.cold", p.id(), rp)
	sres, err := synth.Synthesize(e.ctx, f, fn, spec, profile, sopts)
	ls.cold += rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("synth.warm", p.id(), rp)
	_, err = synth.Synthesize(e.ctx, f, fn, spec, profile, sopts)
	ls.warm += rec.end(id)
	if err != nil {
		return err
	}
	adapter := ""
	if sres.Adapter != nil {
		id = rec.begin("codegen.emit", p.id(), rp)
		adapter = codegen.Prelude() + codegen.Extern(spec) + "\n" + codegen.Emit(sres.Adapter, fn)
		ls.codegen += rec.end(id)
		ls.emitted++
		ls.adapterBytes += len(adapter)
		ls.adapters[p.id()] = adapter
	}
	rec.end(rp)
	r.check(p.id()+" replay", p.check(adapter, sres.FailReason))

	pb := rec.begin("probe", p.id(), root)
	defer rec.end(pb)
	id = rec.begin("analysis", p.id(), pb)
	fi := analysis.AnalyzeFunc(f, fn)
	ls.analysis += rec.end(id)
	if fi.CallsPrintf || fi.UsesVoidPtr || fi.NestedPointer {
		return nil // synthesis stops at this gate, before binding
	}
	id = rec.begin("binding", p.id(), pb)
	cands := binding.Enumerate(fi, spec, profile, binding.Options{})
	ls.binding += rec.end(id)
	ls.bindings += len(cands)
	var cand *binding.Candidate
	switch {
	case sres.Adapter != nil:
		cand = sres.Adapter.Cand
	case len(cands) > 0:
		cand = cands[0]
	default:
		return nil
	}
	if gen := iogen.New(synthSeed, cand, profile); gen.Viable() {
		id = rec.begin("iogen", p.id(), pb)
		cases := gen.Cases(10)
		ls.iogen += rec.end(id)
		ls.cases += len(cases)
		for _, tc := range cases {
			id = rec.begin("accel", p.id(), pb)
			_, err := spec.Run(tc.Input, direction(cand, tc))
			ls.accel += rec.end(id)
			ls.runs++
			if err != nil {
				return fmt.Errorf("%s: accel: %w", p.id(), err)
			}
		}
	}
	if sres.Adapter != nil {
		id = rec.begin("rangecheck", p.id(), pb)
		rangecheck.Build(cand, profile)
		ls.rangecheck += rec.end(id)
		ls.checks++
	}
	return nil
}

// direction is the transform direction the candidate asks of the device
// for case tc, as synthesis computes it.
func direction(cand *binding.Candidate, tc iogen.Case) fft.Direction {
	if d := cand.Direction; d != nil {
		v := d.Constant
		if d.Param != "" {
			v = d.Map[tc.Scalars[d.Param]]
		}
		if v == accel.FFTWBackward {
			return fft.Inverse
		}
	}
	return fft.Forward
}

func perCall(total time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(unit) / float64(n)
}

// addCompileLayers turns the replay sums into the per-layer metrics.
// Times are means per compile unless the name says per call.
func addCompileLayers(r *result, ls *layerSums) {
	n := ls.pairs
	c := ls.counters
	interp := ls.cold - ls.warm
	attributed := ls.parse + ls.check + ls.cold + ls.codegen
	r.add("core.compile_ms", perCall(ls.compile, n, time.Millisecond), "ms", n)
	r.add("core.unattributed_frac", 1-float64(attributed)/float64(ls.compile), "frac", n)
	r.add("interp.ms", perCall(interp, n, time.Millisecond), "ms", n)
	r.add("interp.ref_runs", float64(c["synth.oracle_misses"]), "count", n)
	r.add("interp.steps", float64(c["interp.steps"]), "count", n)
	r.add("interp.ns_per_step", float64(interp)/float64(max(c["interp.steps"], 1)), "ns", n)
	r.add("runtime.alloc_mb_per_compile", float64(ls.allocBytes)/(1<<20)/float64(n), "MB", n)
	r.add("synth.search_ms", perCall(ls.warm, n, time.Millisecond), "ms", n)
	r.add("synth.candidates_tested", float64(c["synth.candidates_tested"]), "count", n)
	r.add("synth.tests_run", float64(c["synth.tests_run"]), "count", n)
	lookups := c["synth.oracle_hits"] + c["synth.oracle_misses"]
	r.add("synth.oracle_hit_frac", float64(c["synth.oracle_hits"])/float64(max(lookups, 1)), "frac", int(lookups))
	r.add("binding.ms", perCall(ls.binding, n, time.Millisecond), "ms", n)
	r.add("binding.candidates", float64(ls.bindings), "count", n)
	r.add("iogen.us_per_case", perCall(ls.iogen, ls.cases, time.Microsecond), "us", ls.cases)
	r.add("accel.us_per_run", perCall(ls.accel, ls.runs, time.Microsecond), "us", ls.runs)
	r.add("minic.parse_ms", perCall(ls.parse, n, time.Millisecond), "ms", n)
	r.add("minic.check_ms", perCall(ls.check, n, time.Millisecond), "ms", n)
	r.add("analysis.ms", perCall(ls.analysis, n, time.Millisecond), "ms", n)
	r.add("rangecheck.us", perCall(ls.rangecheck, ls.checks, time.Microsecond), "us", ls.checks)
	r.add("codegen.us", perCall(ls.codegen, ls.emitted, time.Microsecond), "us", ls.emitted)
	r.add("codegen.adapter_bytes", float64(ls.adapterBytes), "count", ls.emitted)
	r.add("obs.trace_overhead_frac", float64(ls.traced)/float64(ls.compile)-1, "frac", n)
	r.extra("core.attributed_frac", float64(attributed)/float64(ls.compile), "frac", n)
}

// storeOp is one store call of a replayed workload. A get expects entry
// back, or no entry at all when miss is set.
type storeOp struct {
	key   string
	put   bool
	entry store.Entry
	miss  bool
}

// storeReplay runs ops on a fresh store, then reopens it, compacts it, and
// measures its size: the store layer's share of a workload that commits
// and looks up adapters the way faccd does.
func storeReplay(e *env, r *result, ops []storeOp) (*storeTimes, error) {
	dir := filepath.Join(e.work, "replay-store")
	s, err := store.Open(dir, nil)
	if err != nil {
		return nil, err
	}
	st := &storeTimes{}
	span := e.rec.begin("store.replay", "", 0)
	live := map[string]bool{}
	wchar0 := wcharBytes()
	for _, op := range ops {
		if op.put {
			id := e.rec.begin("store.put", op.key, span)
			err := s.Put(op.key, op.entry)
			st.puts = append(st.puts, msOf(e.rec.end(id)))
			r.check("store put "+op.key, err)
			live[op.key] = true
			continue
		}
		id := e.rec.begin("store.get", op.key, span)
		got, ok := s.Get(op.key)
		st.gets = append(st.gets, msOf(e.rec.end(id)))
		switch {
		case op.miss && ok:
			err = errors.New("unexpected hit")
		case !op.miss && (!ok || got.AdapterC != op.entry.AdapterC):
			err = errors.New("missing or wrong entry")
		default:
			err = nil
		}
		r.check("store get "+op.key, err)
	}
	st.wcharPuts = wcharBytes() - wchar0
	if err := s.Close(); err != nil {
		return nil, err
	}
	id := e.rec.begin("store.open", "", span)
	s, err = store.Open(dir, nil)
	st.open = append(st.open, e.rec.end(id).Seconds())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	st.entries, st.live = len(live), len(live)
	id = e.rec.begin("store.compact", "", span)
	err = s.Compact()
	st.compact = e.rec.end(id)
	e.rec.end(span)
	st.diskBytes = dirBytes(dir)
	return st, err
}

// addStoreLayer adds the store-layer metrics.
func addStoreLayer(r *result, st *storeTimes) {
	r.add("store.get_us", 1000*quantile(st.gets, 0.5), "us", len(st.gets))
	r.add("store.put_ms", quantile(st.puts, 0.5), "ms", len(st.puts))
	r.add("store.open_ms_per_1k", quantile(st.open, 0.5)*1e6/float64(max(st.entries, 1)), "ms", len(st.open))
	r.add("store.write_kb_per_put", float64(st.wcharPuts)/1024/float64(max(len(st.puts), 1)), "KB", len(st.puts))
	r.add("store.bytes_per_entry", float64(st.diskBytes)/float64(max(st.live, 1)), "B", st.live)
	r.add("store.compact_ms", msOf(st.compact), "ms", 1)
}

// wcharBytes reads the bytes this process has passed to write calls.
func wcharBytes() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar: "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

// writeProfile renders the raw CPU profile as the text profile
// <e.profiles>/<workload>.txt (top 25 by cumulative time). The lines that
// change on every run (time stamp, binary, build id) are dropped.
func writeProfile(e *env, workload, raw string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out, err := exec.CommandContext(e.ctx, "go", "tool", "pprof", "-top", "-cum", "-nodecount=25", exe, raw).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	var keep bytes.Buffer
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if !strings.HasPrefix(line, "Time:") && !strings.HasPrefix(line, "Build ID:") && !strings.HasPrefix(line, "File:") {
			keep.WriteString(line)
		}
	}
	if err := os.MkdirAll(e.profiles, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.profiles, workload+".txt"), keep.Bytes(), 0o644)
}

// cliColdTraced adds the CLI's own overhead to the compile layers: each
// pair runs once through facc -j 1 and once in-process, and the difference
// is what the process boundary costs.
func cliColdTraced(e *env, r *result) error {
	ls, err := compileLayers(e, r, e.pairs, false)
	if err != nil {
		return err
	}
	paths, err := writeSources(e)
	if err != nil {
		return err
	}
	start, err := cliStartup(e, r)
	if err != nil {
		return err
	}
	r.extra("cli.start_ms", 1000*quantile(start, 0.5), "ms", len(start))
	var overhead []float64
	for _, p := range e.pairs {
		id := e.rec.begin("cli.exec", p.id(), 0)
		run, err := runCLI(e.ctx, e.faccBin, append(append(p.cliArgs(), "-j", "1"), paths[p.prog.Name])...)
		e.rec.end(id)
		if err == nil {
			err = p.check(run.adapter, run.reason)
		}
		r.check(p.id()+" cli", err)
		overhead = append(overhead, msOf(run.wall-ls.perPair[p.id()]))
	}
	r.extra("cli.overhead_ms_p50", quantile(overhead, 0.5), "ms", len(overhead))
	return nil
}

// serveMixedTraced replays the pairs faccd compiles, runs the serve-mixed
// traffic against the daemon, and splits each response's time into the
// HTTP round trip, the queue wait and the compile. The store layer is
// measured by replaying the store calls that traffic made.
func serveMixedTraced(e *env, r *result) error {
	ls, err := replayCompiles(e, r, e.pairs, false)
	if err != nil {
		return err
	}
	sr, err := runServe(e, r)
	if err != nil {
		return err
	}
	var ops []storeOp
	for _, p := range e.supported() {
		ops = append(ops, storeOp{key: digest(p.request()), put: true, entry: entryFor(p, ls.adapters[p.id()])})
	}
	var http, job, queue []float64
	hits := 0
	for _, s := range sr.reqs {
		ent := entryFor(s.p, ls.adapters[s.p.id()])
		key := digest(s.req)
		ops = append(ops, storeOp{key: key, entry: ent, miss: s.kind != kindHit})
		if s.kind == kindFresh {
			ops = append(ops, storeOp{key: key, put: true, entry: ent})
		}
		if s.hit {
			hits++
			http = append(http, msOf(s.rtt-s.elapsed))
			continue
		}
		job = append(job, msOf(s.elapsed))
		if s.kind == kindFresh {
			queue = append(queue, msOf(s.elapsed-ls.perPair[s.p.id()]))
		}
	}
	st, err := storeReplay(e, r, ops)
	if err != nil {
		return err
	}
	addStoreLayer(r, st)
	r.extra("server.http_ms_p50", quantile(http, 0.5), "ms", len(http))
	r.extra("server.job_ms_p50", quantile(job, 0.5), "ms", len(job))
	r.extra("server.queue_wait_ms_p50", quantile(queue, 0.5), "ms", len(queue))
	r.extra("server.cache_hit_frac", float64(hits)/float64(len(sr.reqs)), "frac", len(sr.reqs))
	r.extra("server.shed_frac", float64(sr.status.JobsShed)/float64(len(sr.reqs)), "frac", len(sr.reqs))
	r.extra("status.jobs_admitted", float64(sr.status.JobsAdmitted), "count", 1)
	r.extra("status.jobs_completed", float64(sr.status.JobsCompleted), "count", 1)
	r.extra("status.jobs_failed", float64(sr.status.JobsFailed), "count", 1)
	r.extra("status.jobs_deduped", float64(sr.status.JobsDeduped), "count", 1)
	r.extra("status.cache_hits", float64(sr.status.CacheHits), "count", 1)
	return nil
}

// storeChurnTraced replays the compiles behind the adapters the store
// holds, then runs the churn with the store layer's own numbers.
func storeChurnTraced(e *env, r *result) error {
	if _, err := replayCompiles(e, r, e.supported(), false); err != nil {
		return err
	}
	id := e.rec.begin("store.churn", "", 0)
	st, err := churn(e, r)
	e.rec.end(id)
	if err != nil {
		return err
	}
	addStoreLayer(r, st)
	return nil
}
