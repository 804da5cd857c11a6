// Package iogen generates the random IO examples generate-and-test feeds
// to candidate adapters (paper §6.1): lengths are drawn from the
// intersection of the accelerator domain and the user code's profiled
// range, biased toward small sizes that run quickly; length variables are
// assigned before the arrays they measure (the topological order the paper
// describes); scalar flags honor pins and direction maps.
//
// Every draw is a pure function of its stream key, so a Memo keeps each
// distinct draw once and hands it to every generator built on it:
// signals by (root seed, accelerator length, case index), size and
// scalar draws by (derived seed, bound). It also keeps the CaseDigest of
// each drawn case. Synthesis builds its generators on the memo of its
// oracle cache, so the candidates and targets sharing that cache share
// their draws and digests; New builds a generator on a private memo.
package iogen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/binding"
)

// Case is one generated test input.
type Case struct {
	// UserLen is the value given to the user's length variable (before
	// the candidate's conversion); AccelLen is after conversion.
	UserLen  int64
	AccelLen int64
	// Scalars assigns every non-length integer parameter.
	Scalars map[string]int64
	// Input is the complex test signal. A generated case's Input is the
	// memo's slice for its signal key: read-only, and never replaced.
	Input []complex128

	// signal is the memo key Input was drawn under; its n is 0 for a case
	// not drawn through a memo, such as a literal.
	signal signalKey
}

// Generator produces test cases for one candidate.
//
// Randomness is derived, not shared: every draw comes from a sub-seed that
// is a pure function of (root seed, stream label, case index), so case i is
// the same regardless of how many other cases, candidates or goroutines
// draw around it. The generator makes its draws through its Memo, which
// keeps each one under its stream's key (see Memo), so a draw another
// generator on the same memo already made is not made again. Two streams
// exist:
//
//   - the signal stream is keyed on (root seed, accelerator length, case
//     index) only — candidates that agree on the user-visible shape of a
//     test case feed the user program byte-identical inputs, which is what
//     lets the synthesis oracle cache reference runs across candidates;
//   - the scalar/size-sampling stream is keyed on a per-candidate seed,
//     DeriveSeed(root, RefSig(cand)), so candidates that differ in any
//     way the *user program* can observe (layouts, pins, free parameters)
//     get independent draws rather than colliding on one shared
//     *rand.Rand. The key is deliberately the spec-free RefSig, not
//     UserSig: which accelerator we bind to cannot change what the user
//     program is fed, so same-shape candidates across ffta/powerquad/fftw
//     draw identical scalars — the property that lets the reference
//     oracle share one entry across all three targets.
type Generator struct {
	memo     *Memo
	rootSeed int64
	candSeed int64
	refSig   string
	cand     *binding.Candidate
	prof     *analysis.Profile
	sizes    []int64 // accelerator lengths to draw from, ascending
}

// New builds a generator on a private memo. profile may be nil.
func New(seed int64, cand *binding.Candidate, profile *analysis.Profile) *Generator {
	return NewMemo().Generator(seed, cand, profile)
}

// Generator builds a generator for cand that draws through m, so its
// cases reuse every draw a generator on m made before. Its cases equal
// those of New(seed, cand, profile). profile may be nil.
func (m *Memo) Generator(seed int64, cand *binding.Candidate, profile *analysis.Profile) *Generator {
	ref := RefSig(cand)
	g := &Generator{
		memo:     m,
		rootSeed: seed,
		candSeed: DeriveSeed(seed, "cand:"+ref),
		refSig:   ref,
		cand:     cand,
		prof:     profile,
	}
	g.sizes = g.candidateSizes()
	return g
}

// RefSig returns RefSig of the generator's candidate, computed once.
func (g *Generator) RefSig() string { return g.refSig }

// Memo keeps generated draws so each distinct draw is made once, however
// many generators ask for it. A draw is a pure function of its key, so a
// kept draw is exactly what a fresh one would be:
//
//   - a signal is kept by (root seed, accelerator length, case index),
//     the signal stream's own key;
//   - a size or scalar draw is kept by (derived seed, bound): the
//     DeriveSeed of its stream label and case index, and the n of the
//     Intn(n) it draws.
//
// It also keeps the CaseDigest of every drawn case it is asked for (see
// Memo.CaseDigest). Every caller drawing one signal gets the same slice,
// which consumers must treat as read-only. A Memo is safe for concurrent
// use. It holds everything drawn through it for as long as it lives, so
// it should live no longer than the work that shares it; Bytes reports
// how much of it the signals take.
type Memo struct {
	mu          sync.Mutex
	signals     map[signalKey][]complex128
	ints        map[intKey]int
	digests     map[digestKey]string
	signalBytes int64 // the kept signals' sample bytes, guarded by mu
}

type signalKey struct {
	seed, n, caseIdx int64
}

type intKey struct {
	seed  int64
	bound int
}

// digestKey fixes every byte CaseDigest hashes: prefix is the hash state
// after the case's lengths and sorted scalars, and signal fixes the
// input bits hashed after them.
type digestKey struct {
	prefix uint64
	signal signalKey
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{signals: map[signalKey][]complex128{}, ints: map[intKey]int{},
		digests: map[digestKey]string{}}
}

// CaseDigest returns CaseDigest(c). A case drawn through a memo (this
// one or another) has its digest kept by (the hash state after its
// lengths and scalars, the key its signal was drawn under): FNV-1a's
// final value depends only on that state and the bytes still to hash,
// and the key fixes those bytes, so equal keys give equal digests with
// no collision assumption. A case not drawn through a memo is hashed in
// full.
func (m *Memo) CaseDigest(c Case) string {
	h := digestPrefix(c)
	if c.signal.n == 0 {
		return digestInput(h, c.Input)
	}
	return kept(&m.mu, m.digests, digestKey{h, c.signal},
		func() string { return digestInput(h, c.Input) }, nil)
}

// Bytes returns the sample bytes of every signal the memo keeps: the
// part of it that grows with the lengths and cases drawn through it.
func (m *Memo) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.signalBytes
}

// signal returns the n-point signal of case caseIdx under root seed.
func (m *Memo) signal(seed int64, n, caseIdx int) []complex128 {
	return kept(&m.mu, m.signals, signalKey{seed, int64(n), int64(caseIdx)},
		func() []complex128 { return drawSignal(seed, n, caseIdx) },
		func(s []complex128) { m.signalBytes += 16 * int64(len(s)) })
}

// intn returns rand.New(rand.NewSource(seed)).Intn(bound): the one draw a
// size or scalar stream makes.
func (m *Memo) intn(seed int64, bound int) int {
	return kept(&m.mu, m.ints, intKey{seed, bound},
		func() int { return rand.New(rand.NewSource(seed)).Intn(bound) }, nil)
}

// kept returns the value table holds for k under mu, drawing it on first
// use. The draw runs outside the lock; when two callers race on one key,
// the first value stored wins, so every caller gets the same one. stored
// (nil-safe) sees each value as it enters the table, under mu.
func kept[K comparable, V any](mu *sync.Mutex, table map[K]V, k K, draw func() V, stored func(V)) V {
	mu.Lock()
	v, ok := table[k]
	mu.Unlock()
	if ok {
		return v
	}
	v = draw()
	mu.Lock()
	defer mu.Unlock()
	if prev, ok := table[k]; ok {
		return prev
	}
	table[k] = v
	if stored != nil {
		stored(v)
	}
	return v
}

// DeriveSeed hashes a root seed with a stream label (plus optional indices)
// into an independent sub-seed: FNV-1a over the seed bytes, the label and
// the indices, then a splitmix64 finalizer so adjacent labels avalanche
// into uncorrelated rand.Source states.
func DeriveSeed(seed int64, label string, idx ...int64) int64 {
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211 // FNV-1a 64-bit prime
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(seed) >> (8 * uint(i))))
	}
	for i := 0; i < len(label); i++ {
		mix(label[i])
	}
	for _, v := range idx {
		for i := 0; i < 8; i++ {
			mix(byte(uint64(v) >> (8 * uint(i))))
		}
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h)
}

// UserSig is the canonical identity of everything about a candidate the
// *user program* can observe during a test run: the spec (which fixes the
// size pool), array layouts, length binding, pins, the user-bound direction
// parameter (with its domain), and the free-parameter set. Accelerator-side
// knobs — direction constants, flags values, ReturnIgnored — are deliberately
// excluded: candidates differing only in those run the user program on
// identical inputs, so they share one oracle entry per case.
func UserSig(cand *binding.Candidate) string {
	return "spec=" + cand.Spec.Name + " " + RefSig(cand)
}

// RefSig is the reference-run identity of a candidate: every UserSig
// component except the accelerator spec. The user program cannot observe
// which accelerator we bind to — the spec only chooses what runs on the
// *device* side of the comparison — so candidates across targets that
// agree on RefSig issue byte-identical reference runs. RefSig keys the
// scalar stream (so those candidates draw identical test scalars) and,
// combined with CaseDigest, the cross-target reference oracle.
func RefSig(cand *binding.Candidate) string {
	parts := []string{
		"in=" + cand.Input.Key(),
		"out=" + cand.Output.Key(),
		"len=" + cand.Length.Key(),
	}
	if cand.InPlace {
		parts = append(parts, "inplace")
	}
	if d := cand.Direction; d != nil && d.Param != "" {
		keys := make([]int64, 0, len(d.Map))
		for k := range d.Map {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		dom := make([]string, len(keys))
		for i, k := range keys {
			dom[i] = fmt.Sprintf("%d", k)
		}
		parts = append(parts, fmt.Sprintf("dirparam=%s[%s]", d.Param, strings.Join(dom, ",")))
	}
	pins := append([]binding.ScalarPin(nil), cand.Pins...)
	sort.Slice(pins, func(i, j int) bool { return pins[i].Param < pins[j].Param })
	for _, p := range pins {
		parts = append(parts, fmt.Sprintf("pin(%s=%d)", p.Param, p.Value))
	}
	free := append([]string(nil), cand.FreeParams...)
	sort.Strings(free)
	for _, p := range free {
		parts = append(parts, "free("+p+")")
	}
	return strings.Join(parts, " ")
}

// CaseSig is the user-visible identity of one generated IO case: the
// root seed, the accelerator length, and the 0-based case index. This
// is exactly the key of the candidate-independent signal stream, so the
// same signature names the same input samples across candidates,
// binding families, runs and processes — what the kill table aggregates
// on and the persistent counterexample pool is keyed by.
func CaseSig(seed, accelLen int64, caseIdx int) string {
	return fmt.Sprintf("seed=%d n=%d case=%d", seed, accelLen, caseIdx)
}

// CaseDigest hashes the complete user-visible content of one generated
// case — both length values, every scalar assignment (in sorted name
// order), and the raw IEEE-754 bits of the input signal — into a
// 64-bit FNV-1a/splitmix key rendered as fixed-width hex. Two cases
// with equal digests feed the user program identical bytes, so the
// digest (together with RefSig, which fixes how those bytes are laid
// out in the user's arrays) is the content half of the
// target-independent oracle key: candidates for different accelerators
// that happen to generate the same case share one reference run, and
// different fuzz seeds — which draw different signals — can never
// collide.
func CaseDigest(c Case) string {
	return digestInput(digestPrefix(c), c.Input)
}

// digestPrefix returns CaseDigest's FNV-1a state after both lengths and
// the sorted scalars.
func digestPrefix(c Case) uint64 {
	h := fnv8(14695981039346656037, uint64(c.UserLen))
	h = fnv8(h, uint64(c.AccelLen))
	names := make([]string, 0, len(c.Scalars))
	for k := range c.Scalars {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= 1099511628211
		}
		h = fnv8(h, uint64(c.Scalars[k]))
	}
	return h
}

// fnv8 feeds v's eight little-endian bytes to the FNV-1a state h.
func fnv8(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v >> (8 * uint(i)) & 0xff
		h *= 1099511628211
	}
	return h
}

// digestInput finishes CaseDigest from the state h: it hashes the
// input's bits, then applies the splitmix64 finalizer.
func digestInput(h uint64, input []complex128) string {
	for _, v := range input {
		h = fnv8(h, math.Float64bits(real(v)))
		h = fnv8(h, math.Float64bits(imag(v)))
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return fmt.Sprintf("%016x", h)
}

// candidateSizes computes the accelerator lengths to test, smallest first
// (the paper's bias toward small, fast examples).
func (g *Generator) candidateSizes() []int64 {
	spec := g.cand.Spec
	var pool []int64
	add := func(n int64) {
		if n > 0 && spec.Supports(int(n)) {
			pool = append(pool, n)
		}
	}
	if g.cand.Length.Param == "" {
		add(g.cand.Length.Const)
	} else if r := g.profRange(); r != nil && r.Distinct() != nil {
		for _, v := range r.Distinct() {
			add(g.cand.Length.Conv.Apply(v))
		}
	} else if r != nil {
		// Wide profiled interval: probe powers of two inside it.
		for n := int64(1); n <= r.Max && n <= int64(spec.MaxN); n <<= 1 {
			if conv := g.cand.Length.Conv.Apply(n); conv > 0 {
				if n >= r.Min {
					add(g.cand.Length.Conv.Apply(n))
				}
			}
		}
	}
	if len(pool) == 0 && g.profRange() != nil && g.profRange().Count > 0 {
		// The profiled range and the accelerator domain are disjoint:
		// the candidate is untestable (and the adapter would never fire).
		return nil
	}
	if len(pool) == 0 {
		// No profile: small members of the accelerator domain.
		if spec.PowerOfTwoOnly {
			for n := int64(spec.MinN); n <= int64(spec.MaxN) && n <= 1024; n <<= 1 {
				add(n)
			}
		} else {
			for _, n := range []int64{4, 8, 12, 16, 20, 27, 64, 100, 128} {
				add(n)
			}
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	// Dedup.
	out := pool[:0]
	var last int64 = -1
	for _, n := range pool {
		if n != last {
			out = append(out, n)
			last = n
		}
	}
	// Bias toward small examples (paper §6.1): once small sizes exist,
	// drop the expensive tail — equivalence at small n plus the range
	// check covers the rest.
	const maxTestSize = 256
	smallEnough := 0
	for _, n := range out {
		if n <= maxTestSize {
			smallEnough++
		}
	}
	if smallEnough > 0 {
		out = out[:smallEnough]
	}
	return out
}

func (g *Generator) profRange() *analysis.Range {
	if g.prof == nil || g.cand.Length.Param == "" {
		return nil
	}
	return g.prof.Range(g.cand.Length.Param)
}

// Viable reports whether any testable size exists (empty domain ∩ range
// means the candidate is untestable and must be rejected).
func (g *Generator) Viable() bool { return len(g.sizes) > 0 }

// Cases generates count test cases. Sizes cycle through the pool smallest
// first so early failures are cheap; the remainder sample the pool. Case i
// is a pure function of (seed, candidate, profile, i): generating cases
// 0..k and then case i yields the same case i as generating it alone.
func (g *Generator) Cases(count int) []Case {
	if !g.Viable() {
		return nil
	}
	out := make([]Case, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, g.Case(i))
	}
	return out
}

// Case generates the i-th test case in isolation.
func (g *Generator) Case(i int) Case {
	var an int64
	if i < len(g.sizes) {
		an = g.sizes[i]
	} else {
		an = g.sizes[g.memo.intn(DeriveSeed(g.candSeed, "size", int64(i)), len(g.sizes))]
	}
	c := Case{AccelLen: an, Scalars: map[string]int64{}}
	// Invert the conversion to get the user-level value.
	switch g.cand.Length.Conv {
	case binding.ConvExp2:
		c.UserLen = int64(log2(an))
	default:
		c.UserLen = an
	}
	g.fillScalars(&c, i)
	c.signal = signalKey{g.rootSeed, an, int64(i)}
	c.Input = g.memo.signal(g.rootSeed, int(an), i)
	return c
}

// fillScalars assigns pinned, direction-mapped and free scalar parameters.
// Free parameters are deliberately randomized (including values unlike the
// length) so bindings that secretly depend on them are caught.
func (g *Generator) fillScalars(c *Case, caseIdx int) {
	for _, pin := range g.cand.Pins {
		c.Scalars[pin.Param] = pin.Value
	}
	if d := g.cand.Direction; d != nil && d.Param != "" {
		keys := make([]int64, 0, len(d.Map))
		for k := range d.Map {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		c.Scalars[d.Param] = keys[caseIdx%len(keys)]
	}
	for _, name := range g.cand.FreeParams {
		if _, done := c.Scalars[name]; done {
			continue
		}
		// Keyed per parameter name so the drawn value does not depend on
		// the iteration order of the free set.
		seed := DeriveSeed(g.candSeed, "scalar:"+name, int64(caseIdx))
		if r := g.profOf(name); r != nil && r.Distinct() != nil {
			vals := r.Distinct()
			c.Scalars[name] = vals[g.memo.intn(seed, len(vals))]
		} else {
			c.Scalars[name] = int64(g.memo.intn(seed, 7)) - 1
		}
	}
}

func (g *Generator) profOf(name string) *analysis.Range {
	if g.prof == nil {
		return nil
	}
	return g.prof.Range(name)
}

// drawSignal draws the random complex test vector for case caseIdx. Keyed
// on the root seed plus (length, case index) only — deliberately candidate-
// independent, so every candidate asking for an n-point case i feeds the
// user program the same signal and the oracle can share the reference run.
func drawSignal(seed int64, n, caseIdx int) []complex128 {
	rng := rand.New(rand.NewSource(DeriveSeed(seed, "signal", int64(n), int64(caseIdx))))
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

func log2(n int64) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// FallbackSizes returns lengths in the user's profiled range that the
// accelerator does NOT support — used to test that the fallback path
// preserves behavior.
func FallbackSizes(spec *accel.Spec, profile *analysis.Profile, lengthParam string, conv binding.LengthConv) []int64 {
	if profile == nil || lengthParam == "" {
		return nil
	}
	r := profile.Range(lengthParam)
	if r == nil {
		return nil
	}
	var out []int64
	if vals := r.Distinct(); vals != nil {
		for _, v := range vals {
			if an := conv.Apply(v); an <= 0 || !spec.Supports(int(an)) {
				out = append(out, v)
			}
		}
	}
	return out
}
