// Package fft is a from-scratch FFT library: the functional model behind
// every simulated target (accel.Spec runs FFTA, PowerQuad and the FFTW
// library model through Radix2, MixedRadix and Bluestein), with the
// O(n²) DFT those fast kernels are validated against.
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
	w := keptTable(&mixedTables, tableKey{n, dir}, (r-1)*(n-1)+1,
		func() []complex128 { return mixedTwiddles(n, r, dir) })
	out := make([]complex128, n)
	// Combine: X[k] = Σ_q W_n^{qk} · Sub_q[k mod m]
	for k := 0; k < n; k++ {
		var sum complex128
		for q := 0; q < r; q++ {
			sum += w[q*k] * subs[q][k%m]
		}
		out[k] = sum
	}
	return out
}

// mixedTwiddles returns the factors a radix-r combine step of length n
// multiplies by, indexed by the unreduced product q·k of its terms:
// w[j] = exp(s·2πi·j/n) for j ≤ (r−1)(n−1).
func mixedTwiddles(n, r int, dir Direction) []complex128 {
	s := dir.sign()
	w := make([]complex128, (r-1)*(n-1)+1)
	for j := range w {
		angle := s * 2 * math.Pi * float64(j) / float64(n)
		w[j] = cmplx.Exp(complex(0, angle))
	}
	return w
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
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	t := keptTable(&chirpTables, tableKey{n, dir}, n+m,
		func() *chirpTable { return newChirpTable(n, m, dir) })
	a := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = in[k] * t.chirp[k]
	}
	// Convolve via power-of-two FFTs.
	_ = Radix2(a, Forward)
	for i := range a {
		a[i] *= t.b[i]
	}
	_ = Radix2(a, Inverse)
	out := make([]complex128, n)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * t.chirp[k]
	}
	return out
}

// chirpTable is what Bluestein's algorithm needs for one length n and
// direction besides the input: the chirp, and the forward transform of
// the length-m convolution kernel built from it.
type chirpTable struct {
	chirp []complex128 // exp(s·πi k²/n) for k < n
	b     []complex128
}

func newChirpTable(n, m int, dir Direction) *chirpTable {
	s := dir.sign()
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² mod 2n avoids precision loss for large k.
		k2 := (int64(k) * int64(k)) % int64(2*n)
		angle := s * math.Pi * float64(k2) / float64(n)
		chirp[k] = cmplx.Exp(complex(0, angle))
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	_ = Radix2(b, Forward)
	return &chirpTable{chirp: chirp, b: b}
}

// maxKeptTable caps the entries (complex128 values) of a kept
// mixed-radix or Bluestein table. Lengths come from users (fftw's MaxN
// is 2^24, and faccd takes profile sizes from requests), so a larger
// table is built for its call and dropped. Under the cap only 165 smooth
// lengths and 406 Bluestein lengths have tables, so even all of them, in
// both directions, would hold 16 MiB.
const maxKeptTable = 1 << 11

// tableKey names a kept table: a transform length and direction.
type tableKey struct {
	n   int
	dir Direction
}

// The kept non-power-of-two tables: tableKey → []complex128 from
// mixedTwiddles, and tableKey → *chirpTable.
var mixedTables, chirpTables sync.Map

// keptTable returns the table tables keeps for key, building it on first
// use, or builds it for this call alone when it has more than
// maxKeptTable entries. When first uses race, the first table stored
// wins, so every caller gets the same one and must not write it.
func keptTable[T any](tables *sync.Map, key tableKey, entries int, build func() T) T {
	if entries > maxKeptTable {
		return build()
	}
	if v, ok := tables.Load(key); ok {
		return v.(T)
	}
	v, _ := tables.LoadOrStore(key, build())
	return v.(T)
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
