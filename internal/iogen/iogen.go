// Package iogen generates the random IO examples generate-and-test feeds
// to candidate adapters (paper §6.1): lengths are drawn from the
// intersection of the accelerator domain and the user code's profiled
// range, biased toward small sizes that run quickly; length variables are
// assigned before the arrays they measure (the topological order the paper
// describes); scalar flags honor pins and direction maps.
package iogen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

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
	// Input is the complex test signal.
	Input []complex128
}

// Generator produces test cases for one candidate.
//
// Randomness is derived, not shared: every draw comes from a sub-seed that
// is a pure function of (root seed, stream label, case index), so case i is
// the same regardless of how many other cases, candidates or goroutines
// draw around it. Two streams exist:
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
	rootSeed int64
	candSeed int64
	cand     *binding.Candidate
	prof     *analysis.Profile
	sizes    []int64 // accelerator lengths to draw from, ascending
}

// New builds a generator. profile may be nil.
func New(seed int64, cand *binding.Candidate, profile *analysis.Profile) *Generator {
	g := &Generator{
		rootSeed: seed,
		candSeed: DeriveSeed(seed, "cand:"+RefSig(cand)),
		cand:     cand,
		prof:     profile,
	}
	g.sizes = g.candidateSizes()
	return g
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
	h := uint64(14695981039346656037)
	mix8 := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * uint(i)) & 0xff
			h *= 1099511628211
		}
	}
	mixs := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix8(uint64(c.UserLen))
	mix8(uint64(c.AccelLen))
	names := make([]string, 0, len(c.Scalars))
	for k := range c.Scalars {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		mixs(k)
		mix8(uint64(c.Scalars[k]))
	}
	for _, v := range c.Input {
		mix8(math.Float64bits(real(v)))
		mix8(math.Float64bits(imag(v)))
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return fmt.Sprintf("%016x", h)
}

// caseRng returns the rand stream for one (stream label, case index) draw.
func caseRng(seed int64, label string, idx ...int64) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(seed, label, idx...)))
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
		an = g.sizes[caseRng(g.candSeed, "size", int64(i)).Intn(len(g.sizes))]
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
	c.Input = g.signal(int(an), i)
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
		rng := caseRng(g.candSeed, "scalar:"+name, int64(caseIdx))
		if r := g.profOf(name); r != nil && r.Distinct() != nil {
			vals := r.Distinct()
			c.Scalars[name] = vals[rng.Intn(len(vals))]
		} else {
			c.Scalars[name] = int64(rng.Intn(7)) - 1
		}
	}
}

func (g *Generator) profOf(name string) *analysis.Range {
	if g.prof == nil {
		return nil
	}
	return g.prof.Range(name)
}

// signal draws the random complex test vector for case caseIdx. Keyed on
// the root seed plus (length, case index) only — deliberately candidate-
// independent, so every candidate asking for an n-point case i feeds the
// user program the same signal and the oracle can share the reference run.
func (g *Generator) signal(n, caseIdx int) []complex128 {
	rng := caseRng(g.rootSeed, "signal", int64(n), int64(caseIdx))
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
