package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Plan is a prepared transform, mirroring FFTW's plan-based API: the
// twiddle table is fetched at planning time (from the table Radix2 uses,
// built once per size and direction) and reused across executions.
// This is the interface surface FACC targets when compiling to the
// "optimized software library" backend — deliberately wider than the
// hardware APIs (direction, normalization, in-place flags), which is why
// the library target generates more binding candidates (paper Fig. 16).
type Plan struct {
	N         int
	Dir       Direction
	Norm      bool // scale output by 1/N
	tw        []complex128
	algorithm string
}

// NewPlan prepares a transform of length n. Any positive n is supported:
// power-of-two sizes run the iterative radix-2 kernel, smooth sizes the
// mixed-radix engine, and everything else Bluestein's algorithm.
func NewPlan(n int, dir Direction) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fft: plan length must be positive, got %d", n)
	}
	p := &Plan{N: n, Dir: dir}
	switch {
	case IsPowerOfTwo(n):
		p.algorithm = "radix2"
		p.tw = sharedTwiddles.table(max(n, 2), dir)
	case HasSmallFactors(n):
		p.algorithm = "mixed-radix"
	default:
		p.algorithm = "bluestein"
	}
	return p, nil
}

// Algorithm returns the kernel the plan selected.
func (p *Plan) Algorithm() string { return p.algorithm }

// Execute transforms in into out (both length N). in and out may alias.
func (p *Plan) Execute(in, out []complex128) error {
	if len(in) != p.N || len(out) != p.N {
		return fmt.Errorf("fft: plan is for length %d, got in=%d out=%d", p.N, len(in), len(out))
	}
	switch p.algorithm {
	case "radix2":
		if &in[0] != &out[0] {
			copy(out, in)
		}
		p.radix2Planned(out)
	default:
		res := MixedRadix(in, p.Dir)
		copy(out, res)
	}
	if p.Norm {
		Normalize(out)
	}
	return nil
}

// radix2Planned is the iterative kernel using the precomputed table.
func (p *Plan) radix2Planned(x []complex128) {
	if p.N > 1 {
		radix2(x, p.tw)
	}
}

// FlopEstimate returns the approximate floating-point operation count of
// one execution — used by the platform latency models.
func (p *Plan) FlopEstimate() float64 {
	n := float64(p.N)
	switch p.algorithm {
	case "radix2":
		return 5 * n * math.Log2(n)
	case "mixed-radix":
		return 8 * n * math.Log2(n)
	default: // bluestein: three power-of-two FFTs of ~2N plus pointwise work
		m := float64(nextPow2(2*p.N - 1))
		return 3*5*m*math.Log2(m) + 14*n
	}
}

func nextPow2(n int) int {
	m := 1
	for m < n {
		m <<= 1
	}
	return m
}

// RFFT computes the FFT of real input, returning the full complex
// spectrum (length len(in)).
func RFFT(in []float64) []complex128 {
	c := make([]complex128, len(in))
	for i, v := range in {
		c[i] = complex(v, 0)
	}
	return MixedRadix(c, Forward)
}

// IRFFT computes the inverse FFT of a spectrum and returns the real parts,
// normalized by 1/N.
func IRFFT(in []complex128) []float64 {
	c := MixedRadix(in, Inverse)
	Normalize(c)
	out := make([]float64, len(c))
	for i, v := range c {
		out[i] = real(v)
	}
	return out
}

// Convolve computes the circular convolution of a and b (equal lengths)
// via the frequency domain.
func Convolve(a, b []complex128) ([]complex128, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("fft: convolve length mismatch %d vs %d", len(a), len(b))
	}
	fa := MixedRadix(a, Forward)
	fb := MixedRadix(b, Forward)
	for i := range fa {
		fa[i] *= fb[i]
	}
	out := MixedRadix(fa, Inverse)
	Normalize(out)
	return out, nil
}

// MaxError returns the maximum elementwise magnitude difference between
// two complex slices.
func MaxError(a, b []complex128) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}
