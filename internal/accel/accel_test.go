package accel

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"

	"facc/internal/fft"
	"facc/internal/interp"
)

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

// maxError returns the largest elementwise magnitude difference between
// two complex slices.
func maxError(a, b []complex128) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		worst = math.Max(worst, cmplx.Abs(a[i]-b[i]))
	}
	return worst
}

func TestSpecByName(t *testing.T) {
	for _, want := range Specs() {
		s, err := SpecByName(want.Name)
		if err != nil || !reflect.DeepEqual(s, want) {
			t.Errorf("SpecByName(%q) = %+v, %v, want %+v", want.Name, s, err, want)
		}
	}
	if _, err := SpecByName("tpu"); err == nil {
		t.Error("expected error for unknown target")
	}
}

func TestDomainSupport(t *testing.T) {
	ffta := NewFFTA()
	cases := []struct {
		n    int
		want bool
	}{
		{64, true}, {1024, true}, {65536, true},
		{32, false},     // below MinN
		{131072, false}, // above MaxN
		{100, false},    // not a power of two
		{1000, false},
	}
	for _, c := range cases {
		if got := ffta.Supports(c.n); got != c.want {
			t.Errorf("ffta.Supports(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	fftw := NewFFTWLib()
	for _, n := range []int{1, 3, 100, 1000, 1024} {
		if !fftw.Supports(n) {
			t.Errorf("fftw.Supports(%d) = false", n)
		}
	}
	pq := NewPowerQuad()
	if pq.Supports(8) || !pq.Supports(16) || !pq.Supports(4096) || pq.Supports(8192) {
		t.Error("powerquad domain bounds wrong")
	}
}

func TestFFTARunNormalized(t *testing.T) {
	ffta := NewFFTA()
	rng := rand.New(rand.NewSource(1))
	in := randComplex(rng, 64)
	got, err := ffta.Run(in, fft.Forward)
	if err != nil {
		t.Fatal(err)
	}
	want := fft.DFT(in, fft.Forward)
	fft.Normalize(want) // FFTA quirk: normalized output
	if e := maxError(got, want); e > 1e-4 {
		t.Errorf("FFTA output error %g (normalization quirk missing?)", e)
	}
}

func TestPowerQuadRunUnnormalized(t *testing.T) {
	pq := NewPowerQuad()
	rng := rand.New(rand.NewSource(2))
	in := randComplex(rng, 128)
	got, err := pq.Run(in, fft.Forward)
	if err != nil {
		t.Fatal(err)
	}
	want := fft.DFT(in, fft.Forward)
	if e := maxError(got, want); e > 1e-3 {
		t.Errorf("PowerQuad output error %g", e)
	}
}

func TestFFTWRunBothDirectionsAnyLength(t *testing.T) {
	fw := NewFFTWLib()
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{12, 17, 64, 100} {
		in := randComplex(rng, n)
		got, err := fw.Run(in, fft.Forward)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := fft.DFT(in, fft.Forward)
		if e := maxError(got, want); e > 1e-6*float64(n) {
			t.Errorf("n=%d forward error %g", n, e)
		}
		back, err := fw.Run(got, fft.Inverse)
		if err != nil {
			t.Fatal(err)
		}
		fft.Normalize(back)
		if e := maxError(back, in); e > 1e-6*float64(n) {
			t.Errorf("n=%d roundtrip error %g", n, e)
		}
	}
}

func TestHardwareHasNoInverse(t *testing.T) {
	in := make([]complex128, 64)
	if _, err := NewFFTA().Run(in, fft.Inverse); err == nil {
		t.Error("FFTA should reject inverse transforms")
	}
	if _, err := NewPowerQuad().Run(in, fft.Inverse); err == nil {
		t.Error("PowerQuad should reject inverse transforms")
	}
}

func TestDomainError(t *testing.T) {
	_, err := NewFFTA().Run(make([]complex128, 100), fft.Forward)
	de, ok := err.(*DomainError)
	if !ok {
		t.Fatalf("err = %v, want DomainError", err)
	}
	if de.N != 100 {
		t.Errorf("DomainError.N = %d", de.N)
	}
}

func TestSinglePrecisionRounding(t *testing.T) {
	// Hardware targets round through float32; FFTW (double library) does not.
	rng := rand.New(rand.NewSource(4))
	in := randComplex(rng, 64)
	hw, err := NewFFTA().Run(in, fft.Forward)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range hw {
		if complex128(complex64(v)) != v {
			t.Fatalf("FFTA output[%d] = %v carries more than float32 precision", i, v)
		}
	}
}

func TestAccelTimeMonotonic(t *testing.T) {
	for _, s := range Specs() {
		prev := 0.0
		for _, n := range []int{64, 256, 1024, 4096} {
			tm := s.Time(n)
			if tm <= prev {
				t.Errorf("%s: Time(%d) = %g not monotonic", s.Name, n, tm)
			}
			prev = tm
		}
		if s.Time(0) <= 0 {
			t.Errorf("%s: zero-length time should still cost overhead", s.Name)
		}
	}
}

func TestPlatformTime(t *testing.T) {
	c := interp.Counters{FloatOps: 1000, Loads: 500, Stores: 500}
	for _, p := range []Platform{CortexA5, CortexM33, I9Desktop, SharcDSP} {
		if p.Time(c) <= 0 {
			t.Errorf("%s: non-positive time", p.Name)
		}
	}
	// The desktop must be much faster than the M33 for the same work.
	if I9Desktop.Time(c) >= CortexM33.Time(c)/10 {
		t.Error("i9 should be >10x faster than M33 on identical counters")
	}
	// The DSP beats the A5 on float-heavy work (the fig. 10 baseline).
	if SharcDSP.Time(c) >= CortexA5.Time(c) {
		t.Error("SHARC DSP should beat Cortex-A5 on FFT-shaped work")
	}
}

func TestDSPOffloadHasHandshakeCost(t *testing.T) {
	var zero interp.Counters
	if DSPOffloadTime(zero) <= 0 {
		t.Error("offload handshake should cost time even for empty work")
	}
}

func TestHostFor(t *testing.T) {
	if HostFor("ffta").Name != "cortex-a5" ||
		HostFor("powerquad").Name != "cortex-m33" ||
		HostFor("fftw").Name != "i9-desktop" {
		t.Error("host mapping wrong")
	}
}

func TestParamByRole(t *testing.T) {
	fw := NewFFTWLib()
	if p := fw.ParamByRole(RoleDirection); p == nil || len(p.Values) != 2 {
		t.Error("fftw direction param missing or without value set")
	}
	if p := NewFFTA().ParamByRole(RoleDirection); p != nil {
		t.Error("ffta should have no direction param")
	}
	if p := NewFFTA().ParamByRole(RoleLength); p == nil || p.Name != "len" {
		t.Error("ffta length param wrong")
	}
}

// Sanity-check the calibration direction: a radix-2-shaped op count at
// n=1024 should run ~an order of magnitude faster on the FFTA than on the
// A5 (full calibration is validated end-to-end in the bench harness).
func TestCalibrationShape(t *testing.T) {
	n := 1024.0
	butterflies := n / 2 * math.Log2(n)
	c := interp.Counters{
		FloatOps: int64(10 * butterflies),
		IntOps:   int64(12 * butterflies),
		Loads:    int64(6 * butterflies),
		Stores:   int64(4 * butterflies),
		Branches: int64(2 * butterflies),
	}
	sw := CortexA5.Time(c)
	hw := NewFFTA().Time(1024)
	ratio := sw / hw
	if ratio < 2 || ratio > 200 {
		t.Errorf("FFTA speedup for typical radix-2 counters = %.1fx, outside sane band", ratio)
	}
}

// BenchmarkSpecRun times one device-model run of each target at the two
// sizes generate-and-test draws most (n=64 and n=256), forward.
func BenchmarkSpecRun(b *testing.B) {
	for _, spec := range Specs() {
		for _, n := range []int{64, 256} {
			in := randComplex(rand.New(rand.NewSource(int64(n))), n)
			b.Run(fmt.Sprintf("%s/n=%d", spec.Name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := spec.Run(in, fft.Forward)
					if err != nil {
						b.Fatal(err)
					}
					benchOut = out
				}
			})
		}
	}
}

var benchOut []complex128
