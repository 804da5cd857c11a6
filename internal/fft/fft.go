// Package fft is a from-scratch FFT library. It serves three roles in the
// FACC reproduction: it is the functional model behind the simulated
// hardware accelerators (FFTA, PowerQuad), it is the "optimized software
// library" compilation target standing in for FFTW, and it provides the
// reference transforms that IO-based generate-and-test compares against.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Direction selects the transform sign convention.
type Direction int

// Transform directions. Forward uses exp(-2πi jk/n), Inverse exp(+2πi jk/n).
const (
	Forward Direction = iota
	Inverse
)

func (d Direction) String() string {
	if d == Inverse {
		return "inverse"
	}
	return "forward"
}

// sign returns the exponent sign for the direction.
func (d Direction) sign() float64 {
	if d == Inverse {
		return 1
	}
	return -1
}

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Log2 returns floor(log2(n)).
func Log2(n int) int { return bits.Len(uint(n)) - 1 }

// DFT computes the O(n²) discrete Fourier transform — the reference all
// fast algorithms are validated against.
func DFT(in []complex128, dir Direction) []complex128 {
	n := len(in)
	out := make([]complex128, n)
	s := dir.sign()
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			angle := s * 2 * math.Pi * float64(j) * float64(k) / float64(n)
			sum += in[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

// BitReverse permutes x in place by bit-reversed index. len(x) must be a
// power of two.
func BitReverse(x []complex128) {
	n := len(x)
	shift := 64 - uint(Log2(n))
	for i := range x {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// twiddles returns the n/2 twiddle factors for a size-n stage.
func twiddles(n int, dir Direction) []complex128 {
	w := make([]complex128, n/2)
	s := dir.sign()
	for k := range w {
		angle := s * 2 * math.Pi * float64(k) / float64(n)
		w[k] = cmplx.Exp(complex(0, angle))
	}
	return w
}

// twiddleCache holds one twiddle table per (power-of-two n, direction),
// each filled by twiddles on first use.
type twiddleCache [2][64]struct {
	once sync.Once
	w    []complex128
}

// table returns twiddles(n, dir) for a power-of-two n, computing it once.
// Every caller gets the same slice and must not write it.
func (c *twiddleCache) table(n int, dir Direction) []complex128 {
	d := 0
	if dir == Inverse {
		d = 1
	}
	t := &c[d][Log2(n)]
	t.once.Do(func() { t.w = twiddles(n, dir) })
	return t.w
}

// sharedTwiddles serves every radix-2 transform in the process, so the
// device models do not rebuild a table per run.
var sharedTwiddles twiddleCache

// Radix2 computes an in-place iterative radix-2 FFT. len(x) must be a
// power of two. No normalization is applied in either direction.
func Radix2(x []complex128, dir Direction) error {
	n := len(x)
	if !IsPowerOfTwo(n) {
		return fmt.Errorf("fft: radix-2 requires power-of-two length, got %d", n)
	}
	if n <= 1 {
		return nil
	}
	radix2(x, sharedTwiddles.table(n, dir))
	return nil
}

// radix2 is the iterative butterfly kernel over a power-of-two x ≥ 2
// points, with w = twiddles(len(x), dir) for the transform's direction.
func radix2(x, w []complex128) {
	n := len(x)
	BitReverse(x)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				tw := w[k*step]
				u := x[start+k]
				v := x[start+k+half] * tw
				x[start+k] = u + v
				x[start+k+half] = u - v
			}
		}
	}
}

// Recursive computes an out-of-place recursive (Cooley-Tukey) FFT for
// power-of-two lengths — kept as an independent implementation for tests.
func Recursive(in []complex128, dir Direction) ([]complex128, error) {
	n := len(in)
	if !IsPowerOfTwo(n) {
		return nil, fmt.Errorf("fft: recursive FFT requires power-of-two length, got %d", n)
	}
	out := make([]complex128, n)
	copy(out, in)
	recurse(out, dir)
	return out, nil
}

func recurse(x []complex128, dir Direction) {
	n := len(x)
	if n <= 1 {
		return
	}
	even := make([]complex128, n/2)
	odd := make([]complex128, n/2)
	for i := 0; i < n/2; i++ {
		even[i] = x[2*i]
		odd[i] = x[2*i+1]
	}
	recurse(even, dir)
	recurse(odd, dir)
	s := dir.sign()
	for k := 0; k < n/2; k++ {
		angle := s * 2 * math.Pi * float64(k) / float64(n)
		t := cmplx.Exp(complex(0, angle)) * odd[k]
		x[k] = even[k] + t
		x[k+n/2] = even[k] - t
	}
}

// smallPrimes are the radices the mixed-radix engine handles directly.
var smallPrimes = []int{2, 3, 5, 7}

// factorize splits n into the supported radices; ok is false if a factor
// outside the radix set remains (callers fall back to Bluestein).
func factorize(n int) (factors []int, ok bool) {
	for _, p := range smallPrimes {
		for n%p == 0 {
			factors = append(factors, p)
			n /= p
		}
	}
	return factors, n == 1
}

// HasSmallFactors reports whether n factors entirely into {2,3,5,7}.
func HasSmallFactors(n int) bool {
	_, ok := factorize(n)
	return ok
}

// MixedRadix computes an FFT of any length whose factors are in {2,3,5,7}
// using recursive Cooley-Tukey decomposition; other lengths use Bluestein.
func MixedRadix(in []complex128, dir Direction) []complex128 {
	n := len(in)
	if n <= 1 {
		out := make([]complex128, n)
		copy(out, in)
		return out
	}
	if IsPowerOfTwo(n) {
		out := make([]complex128, n)
		copy(out, in)
		// Radix2 cannot fail on a power-of-two length.
		_ = Radix2(out, dir)
		return out
	}
	if !HasSmallFactors(n) {
		return Bluestein(in, dir)
	}
	return mixedRecurse(in, dir)
}

func mixedRecurse(in []complex128, dir Direction) []complex128 {
	n := len(in)
	if n == 1 {
		return []complex128{in[0]}
	}
	r := 0
	for _, p := range smallPrimes {
		if n%p == 0 {
			r = p
			break
		}
	}
	if r == 0 {
		// Prime length beyond the radix set.
		return DFT(in, dir)
	}
	m := n / r
	// Decimate into r interleaved sub-sequences.
	subs := make([][]complex128, r)
	for q := 0; q < r; q++ {
		sub := make([]complex128, m)
		for i := 0; i < m; i++ {
			sub[i] = in[i*r+q]
		}
		subs[q] = mixedRecurse(sub, dir)
	}
	s := dir.sign()
	out := make([]complex128, n)
	// Combine: X[k] = Σ_q W_n^{qk} · Sub_q[k mod m]
	for k := 0; k < n; k++ {
		var sum complex128
		for q := 0; q < r; q++ {
			angle := s * 2 * math.Pi * float64(q*k) / float64(n)
			sum += cmplx.Exp(complex(0, angle)) * subs[q][k%m]
		}
		out[k] = sum
	}
	return out
}

// Bluestein computes an FFT of arbitrary length n via the chirp-z
// transform, using power-of-two convolutions internally.
func Bluestein(in []complex128, dir Direction) []complex128 {
	n := len(in)
	if n <= 1 {
		out := make([]complex128, n)
		copy(out, in)
		return out
	}
	s := dir.sign()
	// chirp[k] = exp(s·πi k²/n)
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² mod 2n avoids precision loss for large k.
		k2 := (int64(k) * int64(k)) % int64(2*n)
		angle := s * math.Pi * float64(k2) / float64(n)
		chirp[k] = cmplx.Exp(complex(0, angle))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = in[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	// Convolve via power-of-two FFTs.
	_ = Radix2(a, Forward)
	_ = Radix2(b, Forward)
	for i := range a {
		a[i] *= b[i]
	}
	_ = Radix2(a, Inverse)
	out := make([]complex128, n)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * chirp[k]
	}
	return out
}

// Normalize divides x by len(x) in place (the conventional inverse-FFT
// scaling).
func Normalize(x []complex128) {
	s := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] *= s
	}
}

// Scale multiplies x by f in place.
func Scale(x []complex128, f float64) {
	c := complex(f, 0)
	for i := range x {
		x[i] *= c
	}
}

// BitReversedCopy returns x permuted into bit-reversed order (some
// hardware pipelines deliver results this way).
func BitReversedCopy(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	BitReverse(out)
	return out
}
