package iogen

import (
	"fmt"
	"sync"
	"testing"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/binding"
)

func baseCand(spec *accel.Spec) *binding.Candidate {
	return &binding.Candidate{
		Spec:   spec,
		Length: binding.LengthBinding{Param: "n", Conv: binding.ConvIdentity},
	}
}

func TestSizesRespectDomainWithoutProfile(t *testing.T) {
	g := New(1, baseCand(accel.NewFFTA()), nil)
	if !g.Viable() {
		t.Fatal("not viable")
	}
	for _, c := range g.Cases(12) {
		if !accel.NewFFTA().Supports(int(c.AccelLen)) {
			t.Errorf("generated unsupported size %d", c.AccelLen)
		}
		if len(c.Input) != int(c.AccelLen) {
			t.Errorf("input length %d != %d", len(c.Input), c.AccelLen)
		}
	}
}

func TestSizesBiasedSmallFirst(t *testing.T) {
	g := New(1, baseCand(accel.NewFFTA()), nil)
	cases := g.Cases(4)
	if cases[0].AccelLen != 64 {
		t.Errorf("first case size = %d, want smallest (64)", cases[0].AccelLen)
	}
	for i := 1; i < len(cases) && i < 3; i++ {
		if cases[i].AccelLen < cases[i-1].AccelLen {
			t.Errorf("sizes not ascending early: %d then %d", cases[i-1].AccelLen, cases[i].AccelLen)
		}
	}
}

func TestSizesFromProfile(t *testing.T) {
	p := analysis.NewProfile()
	p.ObserveInt("n", 128)
	p.ObserveInt("n", 512)
	g := New(1, baseCand(accel.NewFFTA()), p)
	for _, c := range g.Cases(8) {
		if c.AccelLen != 128 && c.AccelLen != 512 {
			t.Errorf("size %d outside profiled set", c.AccelLen)
		}
	}
}

func TestNonViableWhenDomainAndProfileDisjoint(t *testing.T) {
	p := analysis.NewProfile()
	p.ObserveInt("n", 8) // FFTA MinN is 64
	g := New(1, baseCand(accel.NewFFTA()), p)
	if g.Viable() {
		t.Error("8-point-only profile should be non-viable on FFTA")
	}
	if g.Cases(3) != nil {
		t.Error("non-viable generator must produce no cases")
	}
}

func TestExp2UserLenInversion(t *testing.T) {
	cand := &binding.Candidate{
		Spec:   accel.NewFFTA(),
		Length: binding.LengthBinding{Param: "logn", Conv: binding.ConvExp2},
	}
	p := analysis.NewProfile()
	p.ObserveInt("logn", 6)
	p.ObserveInt("logn", 8)
	g := New(1, cand, p)
	for _, c := range g.Cases(4) {
		if 1<<uint(c.UserLen) != c.AccelLen {
			t.Errorf("UserLen %d does not invert to AccelLen %d", c.UserLen, c.AccelLen)
		}
	}
}

func TestConstLength(t *testing.T) {
	cand := &binding.Candidate{
		Spec:   accel.NewFFTA(),
		Length: binding.LengthBinding{Const: 64},
	}
	g := New(1, cand, nil)
	for _, c := range g.Cases(3) {
		if c.AccelLen != 64 {
			t.Errorf("size = %d, want 64", c.AccelLen)
		}
	}
}

func TestPinsAndDirectionScalars(t *testing.T) {
	cand := baseCand(accel.NewFFTWLib())
	cand.Pins = []binding.ScalarPin{{Param: "mode", Value: 3}}
	cand.Direction = &binding.DirectionSource{Param: "inv",
		Map: map[int64]int64{0: -1, 1: 1}}
	g := New(1, cand, nil)
	cases := g.Cases(6)
	saw0, saw1 := false, false
	for _, c := range cases {
		if c.Scalars["mode"] != 3 {
			t.Errorf("pinned scalar = %d", c.Scalars["mode"])
		}
		switch c.Scalars["inv"] {
		case 0:
			saw0 = true
		case 1:
			saw1 = true
		default:
			t.Errorf("direction scalar = %d, not in map", c.Scalars["inv"])
		}
	}
	if !saw0 || !saw1 {
		t.Error("both direction values must be exercised")
	}
}

func TestFreeParamsRandomized(t *testing.T) {
	cand := baseCand(accel.NewPowerQuad())
	cand.FreeParams = []string{"junk"}
	g := New(7, cand, nil)
	distinct := map[int64]bool{}
	for _, c := range g.Cases(20) {
		distinct[c.Scalars["junk"]] = true
	}
	if len(distinct) < 2 {
		t.Error("free parameter should take multiple values")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := New(99, baseCand(accel.NewPowerQuad()), nil).Cases(5)
	b := New(99, baseCand(accel.NewPowerQuad()), nil).Cases(5)
	for i := range a {
		if a[i].AccelLen != b[i].AccelLen || a[i].Input[0] != b[i].Input[0] {
			t.Fatal("generator not deterministic for fixed seed")
		}
	}
}

// Case i must be a pure function of (seed, candidate, profile, i): the
// surrounding draws (earlier cases, other candidates, other goroutines)
// must not shift it. This is what makes IO generation safe under the
// parallel synthesis pool.
func TestCaseStreamIndependence(t *testing.T) {
	cand := baseCand(accel.NewPowerQuad())
	cand.FreeParams = []string{"junk", "extra"}
	g := New(42, cand, nil)
	all := g.Cases(12)
	for i := range all {
		solo := New(42, cand, nil).Case(i)
		if solo.AccelLen != all[i].AccelLen {
			t.Fatalf("case %d size drifts: %d vs %d", i, solo.AccelLen, all[i].AccelLen)
		}
		for k, v := range all[i].Scalars {
			if solo.Scalars[k] != v {
				t.Fatalf("case %d scalar %s drifts: %d vs %d", i, k, solo.Scalars[k], v)
			}
		}
		for j := range all[i].Input {
			if solo.Input[j] != all[i].Input[j] {
				t.Fatalf("case %d signal drifts at %d", i, j)
			}
		}
	}
}

// Candidates that agree on the user-visible shape of a case must feed the
// user program the same signal (so the oracle can share reference runs),
// while user-visible differences (pins, free params) must give independent
// scalar streams rather than aliasing one shared rng.
func TestSignalSharedAcrossCandidatesScalarsNot(t *testing.T) {
	a := baseCand(accel.NewFFTWLib())
	a.Direction = &binding.DirectionSource{Constant: -1}
	b := baseCand(accel.NewFFTWLib())
	b.Direction = &binding.DirectionSource{Constant: 1}
	b.Flags = map[string]int64{"flags": 64}
	ca := New(5, a, nil).Cases(4)
	cb := New(5, b, nil).Cases(4)
	for i := range ca {
		if ca[i].AccelLen != cb[i].AccelLen {
			t.Fatalf("case %d sizes diverge for accel-side-only variants", i)
		}
		for j := range ca[i].Input {
			if ca[i].Input[j] != cb[i].Input[j] {
				t.Fatalf("case %d signals diverge for accel-side-only variants", i)
			}
		}
	}

	p := baseCand(accel.NewPowerQuad())
	p.FreeParams = []string{"junk"}
	q := baseCand(accel.NewPowerQuad())
	q.FreeParams = []string{"junk"}
	q.Pins = []binding.ScalarPin{{Param: "mode", Value: 1}}
	cp := New(5, p, nil).Cases(16)
	cq := New(5, q, nil).Cases(16)
	same := 0
	for i := range cp {
		if cp[i].Scalars["junk"] == cq[i].Scalars["junk"] {
			same++
		}
	}
	if same == len(cp) {
		t.Error("user-visibly distinct candidates draw an identical free-scalar stream")
	}
}

// DeriveSeed is part of the reproducibility contract: the same inputs must
// hash to the same sub-seed across runs and platforms, and nearby labels
// must land far apart.
func TestDeriveSeedStableAndIndependent(t *testing.T) {
	if got := DeriveSeed(1, "signal", 64, 0); got != DeriveSeed(1, "signal", 64, 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	seen := map[int64]string{}
	for _, seed := range []int64{0, 1, 2} {
		for _, label := range []string{"signal", "size", "scalar:x", "scalar:y"} {
			for idx := int64(0); idx < 4; idx++ {
				s := DeriveSeed(seed, label, idx)
				if prev, dup := seen[s]; dup {
					t.Fatalf("collision: (%d,%s,%d) vs %s", seed, label, idx, prev)
				}
				seen[s] = fmt.Sprintf("(%d,%s,%d)", seed, label, idx)
			}
		}
	}
}

// UserSig must ignore accelerator-side knobs and be canonical under
// reordering of pins and free parameters.
func TestUserSigCanonical(t *testing.T) {
	a := baseCand(accel.NewFFTWLib())
	a.Direction = &binding.DirectionSource{Constant: -1}
	a.Flags = map[string]int64{"flags": 0}
	b := baseCand(accel.NewFFTWLib())
	b.Direction = &binding.DirectionSource{Constant: 1}
	b.Flags = map[string]int64{"flags": 64}
	if UserSig(a) != UserSig(b) {
		t.Errorf("accel-side knobs leak into UserSig:\n%s\n%s", UserSig(a), UserSig(b))
	}

	c := baseCand(accel.NewPowerQuad())
	c.Pins = []binding.ScalarPin{{Param: "a", Value: 1}, {Param: "b", Value: 2}}
	c.FreeParams = []string{"x", "y"}
	d := baseCand(accel.NewPowerQuad())
	d.Pins = []binding.ScalarPin{{Param: "b", Value: 2}, {Param: "a", Value: 1}}
	d.FreeParams = []string{"y", "x"}
	if UserSig(c) != UserSig(d) {
		t.Errorf("UserSig depends on pin/free ordering:\n%s\n%s", UserSig(c), UserSig(d))
	}

	e := baseCand(accel.NewPowerQuad())
	e.Pins = []binding.ScalarPin{{Param: "a", Value: 9}}
	if UserSig(c) == UserSig(e) {
		t.Error("distinct pin values must distinguish UserSig")
	}
}

func TestGeneratorConcurrentUse(t *testing.T) {
	cand := baseCand(accel.NewFFTA())
	cand.FreeParams = []string{"junk"}
	want := New(3, cand, nil).Cases(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := New(3, cand, nil).Cases(8)
			for i := range want {
				if got[i].AccelLen != want[i].AccelLen ||
					got[i].Input[0] != want[i].Input[0] ||
					got[i].Scalars["junk"] != want[i].Scalars["junk"] {
					t.Errorf("concurrent generation diverged at case %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
