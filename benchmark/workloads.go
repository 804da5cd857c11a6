package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"facc"
	"facc/internal/store"
)

// env is what one workload run works with.
type env struct {
	ctx      context.Context
	work     string // private scratch directory, removed after the run
	traces   string // where traced runs leave their Chrome trace and raw profile
	profiles string // where traced runs write the text CPU profile
	faccBin  string
	faccdBin string
	seed     int64
	seconds  time.Duration
	traced   bool
	pairs    []pair
	programs string // the -programs restriction pairs came from
	rec      *recorder
}

func (e *env) supported() []pair   { return filterPairs(e.pairs, true) }
func (e *env) unsupported() []pair { return filterPairs(e.pairs, false) }

func filterPairs(pairs []pair, supported bool) []pair {
	var out []pair
	for _, p := range pairs {
		if p.supported() == supported {
			out = append(out, p)
		}
	}
	return out
}

// Set-up is repeated and its median reported, so one slow start does not
// read as a regression. Opening store-churn's store takes over a tenth of
// a second, so it is repeated fewer times than the cheap set-ups.
const (
	setupSamples = 25
	openSamples  = 9
)

// trivialSource is a function with nothing to accelerate: a facc run on it
// pays exactly the fixed per-invocation cost.
const (
	trivialSource = "int f(int x) { return x + 1; }\n"
	trivialReason = "interface-incompatibility"
)

// writeSources puts every corpus program of the run in the work directory
// and returns the file path per program name.
func writeSources(e *env) (map[string]string, error) {
	dir := filepath.Join(e.work, "src")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := map[string]string{}
	for _, g := range byProgram(e.pairs) {
		b := g[0].prog
		path := filepath.Join(dir, b.File)
		if err := os.WriteFile(path, []byte(b.Source()), 0o644); err != nil {
			return nil, err
		}
		paths[b.Name] = path
	}
	return paths, nil
}

// cliStartup times setupSamples facc runs on the trivial source.
func cliStartup(e *env, r *result) ([]float64, error) {
	path := filepath.Join(e.work, "trivial.c")
	if err := os.WriteFile(path, []byte(trivialSource), 0o644); err != nil {
		return nil, err
	}
	var secs []float64
	for i := 0; i < setupSamples; i++ {
		run, err := runCLI(e.ctx, e.faccBin, "-target", facc.TargetFFTA, path)
		if err == nil && run.reason != trivialReason {
			err = fmt.Errorf("want failure %q, got %q", trivialReason, run.reason)
		}
		r.check("trivial.c", err)
		secs = append(secs, run.wall.Seconds())
	}
	return secs, nil
}

// cliCold runs the facc binary once per pair, in whole passes over every
// pair in a seeded order, until the run's duration has elapsed. Whole
// passes keep the program mix the same on every seed. Peak RSS is the mean
// over invocations of each facc process's peak.
func cliCold(e *env, r *result) error {
	if e.traced {
		return cliColdTraced(e, r)
	}
	paths, err := writeSources(e)
	if err != nil {
		return err
	}
	setup, err := cliStartup(e, r)
	if err != nil {
		return err
	}
	r.add("setup_s", quantile(setup, 0.5), "s", len(setup))

	rng := rand.New(rand.NewSource(e.seed))
	var wall []float64
	var cpu time.Duration
	var rss float64
	start := time.Now()
	for time.Since(start) < e.seconds {
		for _, i := range rng.Perm(len(e.pairs)) {
			p := e.pairs[i]
			run, err := runCLI(e.ctx, e.faccBin, append(p.cliArgs(), paths[p.prog.Name])...)
			if err == nil {
				err = p.check(run.adapter, run.reason)
			}
			r.check(p.id(), err)
			wall = append(wall, msOf(run.wall))
			cpu += run.stats.cpu
			rss += float64(run.stats.maxRSSKB) / 1024
		}
	}
	r.addLatency(wall, time.Since(start))
	r.add("cpu_ms_per_op", msOf(cpu)/float64(len(wall)), "ms", len(wall))
	r.add("peak_rss_mb", rss/float64(len(wall)), "MB", len(wall))
	return nil
}

// libraryPass compiles every pair once in-process at Workers=1, programs
// in the given order, each program's targets sharing one fresh oracle
// cache, and returns each compile's latency in ms.
func libraryPass(e *env, r *result, groups [][]pair, order []int) []float64 {
	var lat []float64
	for _, gi := range order {
		oracle := facc.NewOracleCache()
		for _, p := range groups[gi] {
			req := p.request()
			start := time.Now()
			res, err := facc.CompileContext(e.ctx, req.Name, req.Source, req.Target, facc.Options{
				Entry: req.Entry, ProfileValues: req.ProfileValues, Workers: 1, Oracle: oracle,
			})
			lat = append(lat, msOf(time.Since(start)))
			if err == nil {
				err = p.check(res.AdapterC(), res.FailReason())
			}
			r.check(p.id(), err)
		}
	}
	return lat
}

// warmupProcesses is how many processes time library-warm's warm-up pass
// for setup_s: the measuring process and fresh ones that do nothing else.
const warmupProcesses = 3

// libraryWarmup times one warm-up pass: every pair once, in a seeded
// program order, in a process that has compiled nothing before.
func libraryWarmup(e *env, r *result) error {
	groups := byProgram(e.pairs)
	start := time.Now()
	libraryPass(e, r, groups, rand.New(rand.NewSource(e.seed)).Perm(len(groups)))
	r.add("setup_s", time.Since(start).Seconds(), "s", 1)
	return nil
}

// libraryWarm is a long-lived process compiling the corpus through the
// library in whole passes, after its warm-up pass.
func libraryWarm(e *env, r *result) error {
	if e.traced {
		_, err := compileLayers(e, r, e.pairs, true)
		return err
	}
	warm := &result{}
	if err := libraryWarmup(e, warm); err != nil {
		return err
	}
	setup := []float64{warm.Metrics[0].Value}
	r.merge(warm)
	for i := 1; i < warmupProcesses; i++ {
		fresh, err := spawn(options{seconds: e.seconds.Seconds(), programs: e.programs, warmup: true},
			"library-warm", e.seed+int64(i))
		if err != nil {
			return err
		}
		setup = append(setup, fresh.Metrics[0].Value)
		r.merge(fresh)
	}
	r.add("setup_s", quantile(setup, 0.5), "s", len(setup))

	groups := byProgram(e.pairs)
	rng := rand.New(rand.NewSource(e.seed))
	var lat []float64
	resetPeakRSS()
	cpu := selfCPU()
	start := time.Now()
	for time.Since(start) < e.seconds {
		lat = append(lat, libraryPass(e, r, groups, rng.Perm(len(groups)))...)
	}
	r.addLatency(lat, time.Since(start))
	r.add("cpu_ms_per_op", msOf(selfCPU()-cpu)/float64(len(lat)), "ms", len(lat))
	r.add("peak_rss_mb", peakRSSMB("self"), "MB", 1)
	return nil
}

// request kinds of the serve-mixed traffic.
const (
	kindHit = iota
	kindFresh
	kindUnsupported
)

// mixed is one request of the serve-mixed traffic.
type mixed struct {
	p    pair
	kind int
	req  facc.CompileRequest
}

// mix generates the serve-mixed traffic from the seed in whole rounds. A
// round sends every supported pair once under a fresh digest, plus 14
// cached repeats and 1 unsupported program per 5 fresh requests, shuffled:
// 70/25/5. Whole rounds keep the set of compiles, and so the miss
// latencies, the same on every seed.
type mix struct {
	rng                    *rand.Rand
	supported, unsupported []pair
	hitCycle, unsupCycle   []pair
	salt                   int
}

// deal returns the next pair of a cycle through all: a seeded permutation,
// refilled when it runs out, so each pair comes once per cycle.
func (m *mix) deal(all []pair, cycle *[]pair) pair {
	if len(*cycle) == 0 {
		for _, i := range m.rng.Perm(len(all)) {
			*cycle = append(*cycle, all[i])
		}
	}
	p := (*cycle)[0]
	*cycle = (*cycle)[1:]
	return p
}

// round returns the next round's requests. A fresh digest is a supported
// pair with a never-used Tolerance salt: the digest is new, the adapter is
// the golden one.
func (m *mix) round() []mixed {
	var out []mixed
	n := len(m.supported)
	for _, p := range m.supported {
		m.salt++
		req := p.request()
		req.Tolerance = 2e-3 * (1 + float64(m.salt)*1e-9)
		out = append(out, mixed{p, kindFresh, req})
	}
	for i := 0; i < (14*n+2)/5; i++ {
		p := m.deal(m.supported, &m.hitCycle)
		out = append(out, mixed{p, kindHit, p.request()})
	}
	for i := 0; i < (n+2)/5 && len(m.unsupported) > 0; i++ {
		p := m.deal(m.unsupported, &m.unsupCycle)
		out = append(out, mixed{p, kindUnsupported, p.request()})
	}
	m.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// served is one timed serve-mixed request.
type served struct {
	mixed
	hit     bool
	rtt     time.Duration
	elapsed time.Duration // the job's own elapsed_ms
}

// serveRun is one serve-mixed measurement: the timed requests and the
// daemon's account of itself.
type serveRun struct {
	setup     []float64 // s
	reqs      []served
	elapsed   time.Duration // of the timed rounds
	cpu       time.Duration // faccd's, during the timed rounds
	peakRSSMB float64       // faccd's, over the first rssRounds rounds
	status    serveStatus
}

// faccd keeps each finished job until its history is full, so its memory
// grows with the requests it has served. Its peak RSS is read after a fixed
// number of rounds, so that a faster daemon, which serves more rounds in a
// run, does not read as a larger one. At 20 s a run serves at least this
// many rounds while a round takes under 10 s; a shorter run reads it after
// its last round.
const rssRounds = 3

// populate compiles every supported pair once through a daemon, so the
// measured daemon starts on a store holding all of them.
func populate(e *env, r *result, storeDir string) error {
	d, _, err := startDaemon(e.faccdBin, storeDir, "-workers", "2", "-j", "1")
	if err != nil {
		return err
	}
	work := make(chan pair)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				j, _, _, err := d.compile(p.request())
				if err == nil {
					err = p.check(j.outcome())
				}
				mu.Lock()
				r.check("populate "+p.id(), err)
				mu.Unlock()
			}
		}()
	}
	for _, p := range e.supported() {
		work <- p
	}
	close(work)
	wg.Wait()
	return d.stop()
}

// runServe drives a real faccd (-workers 1 -j 1) with two keep-alive
// clients in a closed loop, in whole rounds of the mix, until the run's
// duration has elapsed. The clients finish each round before the next
// starts.
func runServe(e *env, r *result) (*serveRun, error) {
	storeDir := filepath.Join(e.work, "faccd-store")
	if err := populate(e, r, storeDir); err != nil {
		return nil, err
	}
	sr := &serveRun{}
	var d *daemon
	for i := 0; i < setupSamples; i++ {
		var ready time.Duration
		var err error
		d, ready, err = startDaemon(e.faccdBin, storeDir, "-workers", "1", "-j", "1")
		if err != nil {
			return nil, err
		}
		sr.setup = append(sr.setup, ready.Seconds())
		if i < setupSamples-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	err := serveRounds(e, r, d, sr)
	if err == nil {
		if sr.status, err = d.status(); err != nil {
			err = fmt.Errorf("faccd /status: %w", err)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	if err = d.stop(); err != nil {
		return nil, err
	}
	return sr, nil
}

// serveRounds sends whole rounds of the mix to d until the duration has
// elapsed.
func serveRounds(e *env, r *result, d *daemon, sr *serveRun) error {
	traffic := &mix{rng: rand.New(rand.NewSource(e.seed)), supported: e.supported(), unsupported: e.unsupported()}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	start := time.Now()
	for round := 1; time.Since(start) < e.seconds; round++ {
		reqs := traffic.round()
		var next atomic.Int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		var done []served
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(len(reqs)) && e.ctx.Err() == nil; i = next.Add(1) - 1 {
					q := reqs[i]
					j, hit, rtt, err := d.compile(q.req)
					if err == nil {
						err = checkServed(q.p, q.kind, j, hit)
					}
					mu.Lock()
					r.check(q.p.id(), err)
					done = append(done, served{mixed: q, hit: hit, rtt: rtt,
						elapsed: time.Duration(j.ElapsedMS * float64(time.Millisecond))})
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		sr.reqs = append(sr.reqs, done...)
		if round <= rssRounds {
			sr.peakRSSMB = peakRSSMB(fmt.Sprint(d.cmd.Process.Pid))
		}
	}
	sr.elapsed = time.Since(start)
	cpu1, err := procCPU(d.cmd.Process.Pid)
	sr.cpu = cpu1 - cpu0
	return err
}

// checkServed verifies one response: repeats must come from the store,
// fresh digests must compile, and both must carry the golden adapter;
// unsupported programs must fail with their Fig. 8 label.
func checkServed(p pair, kind int, j job, hit bool) error {
	switch {
	case kind == kindHit && !hit:
		return errors.New("cached digest was not a cache hit")
	case kind != kindHit && (hit || j.Cached):
		return errors.New("fresh digest was answered from the cache")
	case p.supported() && (j.Function != p.prog.Entry || j.Sig != p.want.Sig):
		return fmt.Errorf("function %q sig %q, want %q %q", j.Function, j.Sig, p.prog.Entry, p.want.Sig)
	}
	return p.check(j.outcome())
}

// serveMixed reports the round trips of the timed rounds, faccd's CPU per
// request over them, and faccd's peak RSS over its first rounds.
func serveMixed(e *env, r *result) error {
	if e.traced {
		return serveMixedTraced(e, r)
	}
	sr, err := runServe(e, r)
	if err != nil {
		return err
	}
	var lat, hits, misses []float64
	for _, s := range sr.reqs {
		ms := msOf(s.rtt)
		lat = append(lat, ms)
		if s.hit {
			hits = append(hits, ms)
		} else {
			misses = append(misses, ms)
		}
	}
	r.add("setup_s", quantile(sr.setup, 0.5), "s", len(sr.setup))
	r.addLatency(lat, sr.elapsed)
	r.add("cpu_ms_per_op", msOf(sr.cpu)/float64(len(lat)), "ms", len(lat))
	r.add("peak_rss_mb", sr.peakRSSMB, "MB", 1)
	r.extra("hit_ms_p50", quantile(hits, 0.50), "ms", len(hits))
	r.extra("hit_ms_p99", quantile(hits, 0.99), "ms", len(hits))
	r.extra("miss_ms_p50", quantile(misses, 0.50), "ms", len(misses))
	r.extra("miss_ms_p95", quantile(misses, 0.95), "ms", len(misses))
	return nil
}

// compileAdapters compiles every supported pair with the facc binary, two
// at a time, and returns the store entries faccd would keep for them, in
// pair order.
func compileAdapters(e *env, r *result) ([]store.Entry, error) {
	paths, err := writeSources(e)
	if err != nil {
		return nil, err
	}
	sup := e.supported()
	entries := make([]store.Entry, len(sup))
	errs := make([]error, len(sup))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(sup); i = int(next.Add(1) - 1) {
				p := sup[i]
				run, err := runCLI(e.ctx, e.faccBin, append(p.cliArgs(), paths[p.prog.Name])...)
				if err == nil {
					err = p.check(run.adapter, run.reason)
				}
				errs[i] = err
				entries[i] = entryFor(p, run.adapter)
			}
		}()
	}
	wg.Wait()
	for i, p := range sup {
		r.check("prepare "+p.id(), errs[i])
	}
	return entries, nil
}

// entryFor is the store entry faccd keeps for a compiled pair.
func entryFor(p pair, adapter string) store.Entry {
	return store.Entry{Target: p.target, Function: p.prog.Entry, Sig: p.want.Sig, AdapterC: adapter}
}

// Store-churn sizing: the store holds churnKeys entries before the timed
// phase; keys are drawn Zipf(churnZipfS) over them.
const (
	churnKeys  = 5000
	churnZipfS = 1.1
)

// The store's memory grows with the entries written and the harness's with
// the latencies recorded, so the churn's peak RSS is read when the writer
// has made a fixed number of Puts: a faster store, which makes more in a
// run, does not read as a larger one. A 20 s run makes about four times
// this many; a run that makes fewer reads it at the end.
const rssPuts = 2000

func churnKey(i int) string { return sha(fmt.Sprintf("churn-%d", i)) }

// storeTimes is what the store layer did during one run.
type storeTimes struct {
	open       []float64     // Open of the populated store, s
	entries    int           // entries present at open
	gets, puts []float64     // latencies, ms
	elapsed    time.Duration // of the timed calls
	cpu        time.Duration // this process's, during the timed calls
	peakRSSMB  float64       // this process's, over the first rssPuts Puts
	wcharPuts  int64         // bytes written by the puts, per /proc/self/io
	compact    time.Duration
	diskBytes  int64
	live       int // entries after the run
}

// storeChurn calls store.Store directly: a reader doing Zipf-keyed Gets and
// a writer doing 90% Gets / 10% Puts (80% overwrite, 20% new key), for the
// run's duration, then one Compact.
func storeChurn(e *env, r *result) error {
	if e.traced {
		return storeChurnTraced(e, r)
	}
	st, err := churn(e, r)
	if err != nil {
		return err
	}
	lat := append(append([]float64(nil), st.gets...), st.puts...)
	r.add("setup_s", quantile(st.open, 0.5), "s", len(st.open))
	r.addLatency(lat, st.elapsed)
	r.add("cpu_ms_per_op", msOf(st.cpu)/float64(len(lat)), "ms", len(lat))
	r.add("peak_rss_mb", st.peakRSSMB, "MB", 1)
	r.extra("get_us_p50", 1000*quantile(st.gets, 0.50), "us", len(st.gets))
	r.extra("get_us_p99", 1000*quantile(st.gets, 0.99), "us", len(st.gets))
	r.extra("put_ms_p50", quantile(st.puts, 0.50), "ms", len(st.puts))
	r.extra("put_ms_p99", quantile(st.puts, 0.99), "ms", len(st.puts))
	r.extra("disk_mb", float64(st.diskBytes)/(1<<20), "MB", 1)
	r.extra("compact_ms", msOf(st.compact), "ms", 1)
	return nil
}

// churner is one goroutine of the churn: its timed store calls and the
// outputs it checked.
type churner struct {
	gets, puts []float64 // latencies, ms
	res        result
}

func (c *churner) get(s *store.Store, key string, want store.Entry) {
	start := time.Now()
	got, ok := s.Get(key)
	c.gets = append(c.gets, msOf(time.Since(start)))
	var err error
	switch {
	case !ok:
		err = errors.New("missing")
	case got.AdapterC != want.AdapterC || got.Target != want.Target || got.Sig != want.Sig:
		err = errors.New("wrong entry bytes")
	}
	c.res.check("store get "+key, err)
}

func (c *churner) put(s *store.Store, key string, ent store.Entry) {
	start := time.Now()
	err := s.Put(key, ent)
	c.puts = append(c.puts, msOf(time.Since(start)))
	c.res.check("store put "+key, err)
}

// churn prepares the store untimed, then times its opens, the two-goroutine
// churn and the final compaction.
func churn(e *env, r *result) (*storeTimes, error) {
	entries, err := compileAdapters(e, r)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.work, "churn-store")
	want := func(i int) store.Entry { return entries[i%len(entries)] }
	keys := make([]string, churnKeys)
	for i := range keys {
		keys[i] = churnKey(i)
	}
	s, err := store.Open(dir, nil)
	if err != nil {
		return nil, err
	}
	// Concurrent puts share group commits, so preparation costs a few
	// hundred fsyncs rather than one per entry.
	var next atomic.Int64
	var prepErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < churnKeys; i = int(next.Add(1) - 1) {
				if err := s.Put(keys[i], want(i)); err != nil {
					prepErr.Store(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		return nil, err
	}
	if err, _ := prepErr.Load().(error); err != nil {
		return nil, err
	}

	st := &storeTimes{entries: churnKeys}
	for i := 0; i < openSamples; i++ {
		start := time.Now()
		if s, err = store.Open(dir, nil); err != nil {
			return nil, err
		}
		st.open = append(st.open, time.Since(start).Seconds())
		if i < openSamples-1 {
			if err := s.Close(); err != nil {
				return nil, err
			}
		}
	}
	defer s.Close()

	// Zipf ranks map to keys through a seeded permutation, so the hot keys
	// are spread over the key space.
	perm := rand.New(rand.NewSource(e.seed)).Perm(churnKeys)
	var reader, writer churner
	resetPeakRSS()
	cpu0, wchar0 := selfCPU(), wcharBytes()
	start := time.Now()
	deadline := start.Add(e.seconds)
	wg.Add(1)
	go func() {
		defer wg.Done()
		z := rand.NewZipf(rand.New(rand.NewSource(e.seed+1)), churnZipfS, 1, churnKeys-1)
		for time.Now().Before(deadline) {
			i := perm[z.Uint64()]
			reader.get(s, keys[i], want(i))
		}
	}()
	rng := rand.New(rand.NewSource(e.seed + 2))
	z := rand.NewZipf(rng, churnZipfS, 1, churnKeys-1)
	added := churnKeys
	for seq := 1; time.Now().Before(deadline); seq++ {
		i := perm[z.Uint64()]
		if rng.Intn(10) != 0 {
			writer.get(s, keys[i], want(i))
			continue
		}
		key := keys[i]
		if rng.Intn(5) == 0 {
			i, added = added, added+1
			key = churnKey(i)
		}
		ent := want(i)
		ent.Trace = fmt.Sprintf("churn-%d", seq)
		writer.put(s, key, ent)
		if len(writer.puts) == rssPuts {
			st.peakRSSMB = peakRSSMB("self")
		}
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.cpu, st.wcharPuts = selfCPU()-cpu0, wcharBytes()-wchar0
	if len(writer.puts) < rssPuts {
		st.peakRSSMB = peakRSSMB("self")
	}
	r.merge(&reader.res)
	r.merge(&writer.res)

	compactStart := time.Now()
	if err := s.Compact(); err != nil {
		return nil, err
	}
	st.compact = time.Since(compactStart)
	st.gets = append(reader.gets, writer.gets...)
	st.puts = writer.puts
	st.live = added
	st.diskBytes = dirBytes(dir)
	return st, nil
}
