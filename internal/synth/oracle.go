package synth

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"facc/internal/analysis"
	"facc/internal/binding"
	"facc/internal/interp"
	"facc/internal/iogen"
	"facc/internal/minic"
	"facc/internal/obs"
)

// OracleCache keeps the target-independent work of the compiles that
// share it, so each step is done once however many targets and
// candidates ask for it:
//
//   - the reference side of generate-and-test: the user program's output
//     for one test case;
//   - the generated test inputs behind those runs, and each drawn case's
//     iogen.CaseDigest (its iogen.Memo);
//   - the checked *minic.File of each (file name, source), or the error
//     parsing or checking it (File);
//   - per function, its analysis.FuncInfo and its FileDigest.
//
// Binding enumeration multiplies candidates along accelerator-side
// axes — direction constants, flags specializations, and the *target
// itself* — that the user program cannot observe, so those candidates
// would re-interpret the same MiniC function on the same inputs once
// each. The cache computes each distinct user-side run once and shares
// it.
//
// The key of a reference run is target-independent by construction:
//
//	fn=<file/function digest>|<iogen.RefSig(cand)>|io=<iogen.CaseDigest(case)>
//
// RefSig fixes how test bytes are laid out in the user's arrays (array
// layouts, length binding, pins, the free set — everything user-visible
// about the candidate except the spec), and CaseDigest hashes the bytes
// themselves (lengths, scalars, the signal bits). Candidates for
// ffta, powerquad and fftw that agree on both therefore share one entry
// — which is why eval.CompileAll hands all three targets' compiles of a
// program one shared cache instead of re-interpreting it 3×. The
// file/function digest scopes entries so one process-wide cache can
// span files without aliasing (the same source parsed twice hashes
// equal and still shares). Different fuzz seeds draw different signals,
// so their digests — and keys — never collide.
//
// The cached value is exact under the same assumption generate-and-test
// already makes of the reference function: that it is observationally
// deterministic per call (idempotent memoization of twiddle tables and
// the like is fine; interpreter machines keep their globals across runs
// precisely so such caches stay warm).
//
// Every candidate's generator is built on the cache's memo, so a case
// drawn for one candidate or target is not drawn again for the next
// (signals by root seed, length and case index; size and scalar draws by
// derived seed and bound), and its digest is not hashed again.
//
// Compiles sharing a cache share one *minic.File per source (the
// Compilation's File) and one *analysis.FuncInfo per function, from
// several goroutines at once, so both are read-only once checked. Since
// every value is a pure function of its key, the compiles sharing a
// cache need not share anything else: a daemon hands one cache to every
// request, whatever its target, tolerance or test count. The target and
// tolerance only change how a run is compared; a larger test count adds
// cases, and only those are new runs.
//
// Everything the cache holds lives exactly as long as the cache; nothing
// is evicted. Bytes reports what of it grows with the work: a long-lived
// owner replaces a cache that has outgrown its budget with a fresh one,
// and compiles still holding the old one finish on it unchanged.
//
// A nil *OracleCache is not usable; Synthesize builds a private one
// when Options.Oracle is unset, so sharing is strictly opt-in.
type OracleCache struct {
	mu      sync.Mutex
	entries map[string]*oracleEntry
	files   map[fileKey]*fileEntry
	funcs   map[*minic.FuncDecl]*funcEntry
	memo    *iogen.Memo

	hits, misses atomic.Int64
	// bytes counts the stored reference outputs and cached source text.
	bytes atomic.Int64
}

// NewOracleCache returns an empty cache, ready to be shared across
// Synthesize calls and targets via Options.Oracle.
func NewOracleCache() *OracleCache {
	return &OracleCache{entries: map[string]*oracleEntry{}, files: map[fileKey]*fileEntry{},
		funcs: map[*minic.FuncDecl]*funcEntry{}, memo: iogen.NewMemo()}
}

// slot returns table's entry for k under mu, adding an empty one on
// first sight.
func slot[K comparable, V any](mu *sync.Mutex, table map[K]*V, k K) *V {
	mu.Lock()
	defer mu.Unlock()
	e := table[k]
	if e == nil {
		e = new(V)
		table[k] = e
	}
	return e
}

type fileKey struct{ name, src string }

// fileEntry is one source's frontend result. Like oracleEntry it is
// guarded by its own mutex, so a frontend that panics leaves it unset.
type fileEntry struct {
	mu   sync.Mutex
	done bool
	f    *minic.File
	err  error
}

// File parses and checks src, named name, once per cache: every caller
// gets the same *minic.File, or the same parse or check error. The file
// is shared by every compile on the cache and must not be written. sp
// (nil-safe) is the caller's frontend span: the call that parses records
// its parse and typecheck spans under it, and a call served from the
// cache marks it cached instead.
func (c *OracleCache) File(name, src string, sp *obs.Span) (*minic.File, error) {
	e := slot(&c.mu, c.files, fileKey{name, src})
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		sp.Str("cached", "true")
		return e.f, e.err
	}
	psp := sp.Child("parse")
	f, err := minic.Parse(name, src)
	psp.End()
	if err == nil {
		tsp := sp.Child("typecheck")
		err = minic.Check(f)
		tsp.End()
	}
	if err != nil {
		f = nil
	}
	e.f, e.err, e.done = f, err, true
	c.bytes.Add(int64(len(name) + len(src)))
	return f, err
}

// funcEntry is what synthesis derives from one checked function alone,
// each part computed on first use under the entry's mutex.
type funcEntry struct {
	mu     sync.Mutex
	info   *analysis.FuncInfo
	digest string
}

// funcInfo returns analysis.AnalyzeFunc(f, fn), computed once per
// function; fn belongs to f.
func (c *OracleCache) funcInfo(f *minic.File, fn *minic.FuncDecl) *analysis.FuncInfo {
	e := slot(&c.mu, c.funcs, fn)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.info == nil {
		e.info = analysis.AnalyzeFunc(f, fn)
	}
	return e.info
}

// fileDigest returns FileDigest(f, fn.Name), computed once per function;
// fn belongs to f.
func (c *OracleCache) fileDigest(f *minic.File, fn *minic.FuncDecl) string {
	e := slot(&c.mu, c.funcs, fn)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.digest == "" {
		e.digest = FileDigest(f, fn.Name)
	}
	return e.digest
}

// Bytes returns what the cache holds that grows with the compiles
// sharing it: the stored reference outputs, the memoized test signals
// and the cached source text. Keys, parsed files and analysis facts are
// not counted; they grow with the same programs as the source text.
func (c *OracleCache) Bytes() int64 {
	return c.bytes.Load() + c.memo.Bytes()
}

// Stats reports cache-wide effectiveness over every lookup this cache
// has served (across all Synthesize calls and targets sharing it).
func (c *OracleCache) Stats() (hits, misses int64, rate float64) {
	hits, misses = c.hits.Load(), c.misses.Load()
	if total := hits + misses; total > 0 {
		rate = float64(hits) / float64(total)
	}
	return hits, misses, rate
}

// FileDigest canonicalizes a parsed file to its printed form and hashes
// it with the function name — the scope prefix of oracle keys. Two
// parses of the same source digest equal, so re-parsed copies of one
// program share entries. Synthesis computes it once per function and
// cache.
func FileDigest(f *minic.File, fn string) string {
	src := minic.PrintFile(f)
	h := uint64(14695981039346656037)
	for i := 0; i < len(src); i++ {
		h ^= uint64(src[i])
		h *= 1099511628211
	}
	h ^= uint64('|')
	h *= 1099511628211
	for i := 0; i < len(fn); i++ {
		h ^= uint64(fn[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return fmt.Sprintf("%016x", h)
}

// oracleKey builds the full target-independent cache key for one
// (candidate, case) reference run; ref is the candidate's iogen.RefSig
// and caseDigest the case's iogen.CaseDigest.
func oracleKey(fileKey, ref, caseDigest string) string {
	return "fn=" + fileKey + "|" + ref + "|io=" + caseDigest
}

// oracle is one Synthesize call's view of the cache: it owns the
// interpreter machine pool (machines are per-file) and the per-run
// hit/miss counters the oracle event reports, while the entry map may be
// shared process-wide via Options.Oracle.
//
// Machines are pooled (bounded by the worker count) rather than built
// per candidate: interpreter construction re-runs global initializers,
// and a warm machine carries memoized twiddles across candidates.
// Results of cancelled or timed-out runs are never cached — the next
// candidate recomputes them under its own budget.
type oracle struct {
	f       *minic.File
	fn      *minic.FuncDecl
	fileKey string
	// reg (nil-safe) receives interp.* work counters and the
	// synth.oracle_hits / synth.oracle_misses pairs.
	reg *obs.Registry

	machines chan *interp.Machine // tokens; nil = build lazily on first use
	workers  int                  // the machine bound: cases run concurrently

	cache *OracleCache

	hits, misses atomic.Int64 // this Synthesize call's lookups only

	// Blended and per-target lookup counters, resolved once at
	// construction so the per-case path does no map lookups or string
	// concatenation. All candidates of one synthesis share one target.
	hitsCtr, missesCtr       *obs.Counter
	hitsTgtCtr, missesTgtCtr *obs.Counter
}

// oracleEntry is one memoized user-side run. The per-entry mutex (rather
// than sync.Once) keeps the slot retryable: a run aborted by a candidate
// deadline or a panic leaves done=false and the next candidate recomputes.
type oracleEntry struct {
	mu   sync.Mutex
	done bool
	out  []complex128
	ret  *int64
	err  error
}

func newOracle(f *minic.File, fn *minic.FuncDecl, target string, workers int,
	reg *obs.Registry, shared *OracleCache) *oracle {
	o := &oracle{
		f:        f,
		fn:       fn,
		fileKey:  shared.fileDigest(f, fn),
		reg:      reg,
		machines: make(chan *interp.Machine, workers),
		workers:  workers,
		cache:    shared,
	}
	if reg != nil {
		o.hitsCtr = reg.Counter("synth.oracle_hits")
		o.missesCtr = reg.Counter("synth.oracle_misses")
		o.hitsTgtCtr = reg.Counter("synth.oracle_hits." + target)
		o.missesTgtCtr = reg.Counter("synth.oracle_misses." + target)
	}
	for i := 0; i < workers; i++ {
		o.machines <- nil
	}
	return o
}

// acquire takes a machine token from the pool, building the machine on
// first use. It respects ctx so a cancelled candidate does not sit in the
// queue behind long-running reference executions.
func (o *oracle) acquire(ctx context.Context) (*interp.Machine, error) {
	select {
	case m := <-o.machines:
		if m == nil {
			mm, err := interp.NewMachine(o.f)
			if err != nil {
				o.machines <- nil
				return nil, fmt.Errorf("synth: %w", err)
			}
			mm.MaxSteps = 40_000_000
			mm.Obs = o.reg // interp.faults.* attribution (nil-safe)
			m = mm
		}
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run returns the user program's output for case tc of cand, whose
// iogen.RefSig is ref, computing it at most once per distinct user-side
// run. The returned slice is shared across candidates and must be treated
// as read-only. Interpreter faults (out-of-bounds etc.) are cached too —
// they are deterministic evidence against every candidate with this
// signature — but cancellation/timeout errors are returned uncached.
// steps reports the interpreter steps this call actually spent: the
// miss's run cost, or 0 on a cache hit (shared work was already paid
// for, and hit is true). The steps and the lookup are the work the
// candidate's fuzz event charges to it.
func (o *oracle) run(ctx context.Context, cand *binding.Candidate, ref string,
	tc iogen.Case) (out []complex128, ret *int64, steps int64, hit bool, err error) {
	e := slot(&o.cache.mu, o.cache.entries, oracleKey(o.fileKey, ref, o.cache.memo.CaseDigest(tc)))

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		o.hits.Add(1)
		o.cache.hits.Add(1)
		o.hitsCtr.Inc()
		o.hitsTgtCtr.Inc()
		// A hit is shared work: some candidate already paid for this
		// reference run; this one reuses it for free.
		return e.out, e.ret, 0, true, e.err
	}
	o.misses.Add(1)
	o.cache.misses.Add(1)
	o.missesCtr.Inc()
	o.missesTgtCtr.Inc()

	m, merr := o.acquire(ctx)
	if merr != nil {
		return nil, nil, 0, false, merr
	}
	prev := m.TotalCounters()
	m.Ctx = ctx
	defer func() {
		if r := recover(); r != nil {
			// The interpreter panicked mid-run: the machine state is
			// suspect, so drop it and hand the pool a fresh token before
			// re-raising into the candidate's panic shield.
			o.machines <- nil
			panic(r)
		}
		delta := m.TotalCounters().Sub(prev)
		steps = delta.Steps // fills the named result on every miss exit
		o.reg.Counter("interp.ops").Add(delta.Total())
		o.reg.Counter("interp.allocs").Add(delta.Allocs)
		o.reg.Counter("interp.steps").Add(delta.Steps)
		o.machines <- m
	}()
	uout, uret, rerr := runUser(m, o.fn, cand, tc)
	if rerr != nil && (interp.FaultOf(rerr) == interp.FaultCancelled || ctx.Err() != nil) {
		return nil, nil, 0, false, rerr
	}
	e.done = true
	e.out, e.ret, e.err = uout, uret, rerr
	o.cache.bytes.Add(16 * int64(len(uout)))
	return uout, uret, 0, false, rerr
}

// stats reports cache effectiveness for this Synthesize call: hits,
// misses, and the hit rate over its lookups (0 when nothing was looked
// up). Lookups other calls issued against a shared cache are excluded.
func (o *oracle) stats() (hits, misses int64, rate float64) {
	hits, misses = o.hits.Load(), o.misses.Load()
	if total := hits + misses; total > 0 {
		rate = float64(hits) / float64(total)
	}
	return hits, misses, rate
}
