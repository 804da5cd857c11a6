package synth

// Oracle-key derivation tests: the cache key for a reference run must be
// a pure function of (user program, candidate's user-visible shape, test
// case content) — identical across accelerator targets, distinct across
// fuzz seeds, and pinned against silent scheme drift.

import (
	"strings"
	"testing"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/binding"
	"facc/internal/iogen"
	"facc/internal/minic"
)

// enumerateByRefSig enumerates spec's binding candidates for fn and
// groups them by reference signature (first candidate per signature).
func enumerateByRefSig(t *testing.T, f *minic.File, fn *minic.FuncDecl,
	spec *accel.Spec, prof *analysis.Profile) map[string]*binding.Candidate {
	t.Helper()
	fi := analysis.AnalyzeFunc(f, fn)
	out := map[string]*binding.Candidate{}
	for _, cand := range binding.Enumerate(fi, spec, prof, binding.Options{}) {
		sig := iogen.RefSig(cand)
		if _, ok := out[sig]; !ok {
			out[sig] = cand
		}
	}
	if len(out) == 0 {
		t.Fatalf("no binding candidates for %s on %s", fn.Name, spec.Name)
	}
	return out
}

// TestOracleKeyIdenticalAcrossTargets is the tentpole invariant: for the
// same function and the same IO case, candidates bound to ffta, powerquad
// and fftw that agree on their user-visible shape (RefSig) must produce
// byte-identical oracle keys, so one target's reference run is a cache
// hit for the other two.
func TestOracleKeyIdenticalAcrossTargets(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	fn := f.Func("fft")
	prof := pow2Profile("n", 64)

	specs := []*accel.Spec{accel.NewFFTA(), accel.NewPowerQuad(), accel.NewFFTWLib()}
	byTarget := make([]map[string]*binding.Candidate, len(specs))
	for i, spec := range specs {
		byTarget[i] = enumerateByRefSig(t, f, fn, spec, prof)
	}

	// Shapes shared by every target — these are the candidates the
	// shared cache deduplicates across. At least one must exist, or
	// cross-target sharing is structurally impossible for the common
	// corpus shape.
	var shared []string
	for sig := range byTarget[0] {
		common := true
		for _, m := range byTarget[1:] {
			if _, ok := m[sig]; !ok {
				common = false
				break
			}
		}
		if common {
			shared = append(shared, sig)
		}
	}
	if len(shared) == 0 {
		t.Fatalf("no RefSig shared across %d targets; cross-target oracle sharing impossible", len(specs))
	}

	fileKey := FileDigest(f, fn.Name)
	const seed = int64(424242)
	for _, sig := range shared {
		// One generator per target's candidate: equal RefSig must imply
		// an identical case stream and identical keys, case by case.
		gens := make([]*iogen.Generator, len(specs))
		for i := range specs {
			gens[i] = iogen.New(seed, byTarget[i][sig], prof)
			if !gens[i].Viable() {
				t.Fatalf("%s: candidate %q not viable", specs[i].Name, sig)
			}
		}
		for caseIdx := 0; caseIdx < 4; caseIdx++ {
			base := oracleKey(fileKey, iogen.RefSig(byTarget[0][sig]), iogen.CaseDigest(gens[0].Case(caseIdx)))
			for i := 1; i < len(specs); i++ {
				key := oracleKey(fileKey, iogen.RefSig(byTarget[i][sig]), iogen.CaseDigest(gens[i].Case(caseIdx)))
				if key != base {
					t.Errorf("case %d: key differs between %s and %s:\n  %s\n  %s",
						caseIdx, specs[0].Name, specs[i].Name, base, key)
				}
			}
		}
	}
	t.Logf("verified %d shared candidate shapes across %d targets", len(shared), len(specs))
}

// TestOracleKeySeedsDoNotCollide: different fuzz seeds draw different
// signals, so the same (function, candidate, case index) under two seeds
// must never share a key — a collision would serve one seed's reference
// output for the other's input.
func TestOracleKeySeedsDoNotCollide(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	fn := f.Func("fft")
	prof := pow2Profile("n", 64)
	cands := enumerateByRefSig(t, f, fn, accel.NewFFTA(), prof)
	fileKey := FileDigest(f, fn.Name)

	for sig, cand := range cands {
		gA := iogen.New(424242, cand, prof)
		gB := iogen.New(7, cand, prof)
		if !gA.Viable() {
			continue
		}
		for caseIdx := 0; caseIdx < 4; caseIdx++ {
			kA := oracleKey(fileKey, sig, iogen.CaseDigest(gA.Case(caseIdx)))
			kB := oracleKey(fileKey, sig, iogen.CaseDigest(gB.Case(caseIdx)))
			if kA == kB {
				t.Errorf("%q case %d: seeds 424242 and 7 collide on key %s", sig, caseIdx, kA)
			}
		}
	}
}

// TestFileDigestScopesKeys: the digest is stable across re-parses of the
// same source (so eval's per-target re-parsed copies share entries) and
// distinguishes functions, so one process-wide cache cannot alias.
func TestFileDigestScopesKeys(t *testing.T) {
	f1, err := minic.ParseAndCheck("a.c", radix2Struct)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	f2, err := minic.ParseAndCheck("b.c", radix2Struct)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	if d1, d2 := FileDigest(f1, "fft"), FileDigest(f2, "fft"); d1 != d2 {
		t.Errorf("re-parsed identical source digests differ: %s vs %s", d1, d2)
	}
	if d1, d2 := FileDigest(f1, "fft"), FileDigest(f1, "other"); d1 == d2 {
		t.Errorf("different function names share digest %s", d1)
	}
}

// TestOracleKeyGolden pins the key scheme: any change to FileDigest,
// RefSig, CaseDigest or the key layout shows up as a diff here, making
// cache-scheme drift (which silently empties shared caches across
// versions) a reviewed decision instead of an accident. The keys a
// cache builds, from its memoized digests and file digest, are pinned
// to the same strings.
func TestOracleKeyGolden(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	fn := f.Func("fft")
	prof := pow2Profile("n", 64)
	fi := analysis.AnalyzeFunc(f, fn)
	cands := binding.Enumerate(fi, accel.NewFFTA(), prof, binding.Options{})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	cand := cands[0]
	gen := iogen.New(424242, cand, prof)
	cache := NewOracleCache()
	cached := cache.memo.Generator(424242, cand, prof)

	golden := []string{
		"fn=8f129c38c19a8a84|in=struct(x,re=0,im=1) out=struct(x,re=0,im=1) len=n(n) inplace|io=886f79c1fa4442d8",
		"fn=8f129c38c19a8a84|in=struct(x,re=0,im=1) out=struct(x,re=0,im=1) len=n(n) inplace|io=60011149756c6b08",
		"fn=8f129c38c19a8a84|in=struct(x,re=0,im=1) out=struct(x,re=0,im=1) len=n(n) inplace|io=27fe365c388a9daf",
	}
	for i, want := range golden {
		got := oracleKey(FileDigest(f, fn.Name), iogen.RefSig(cand), iogen.CaseDigest(gen.Case(i)))
		if got != want {
			t.Errorf("golden key %d drifted:\n  want %s\n  got  %s", i, want, got)
		}
		for pass := 0; pass < 2; pass++ { // a miss, then a hit on the memo
			got := oracleKey(cache.fileDigest(f, fn), cached.RefSig(), cache.memo.CaseDigest(cached.Case(i)))
			if got != want {
				t.Errorf("golden key %d from the cache, pass %d:\n  want %s\n  got  %s", i, pass, want, got)
			}
		}
	}
	// The layout is load-bearing for debuggability: fn scope first, then
	// the user-visible candidate shape, then the case content.
	if got := oracleKey("abc", iogen.RefSig(cand), iogen.CaseDigest(gen.Case(0))); !strings.HasPrefix(got, "fn=abc|") ||
		!strings.Contains(got, "|io=") {
		t.Errorf("key layout drifted: %s", got)
	}
}
