package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
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

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 64, 1024, 65536} {
		if !IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 12, 100, 1000} {
		if IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = true", n)
		}
	}
}

func TestDFTKnownValues(t *testing.T) {
	// DFT of an impulse is all ones.
	in := []complex128{1, 0, 0, 0}
	out := DFT(in, Forward)
	for i, v := range out {
		if math.Abs(real(v)-1) > 1e-12 || math.Abs(imag(v)) > 1e-12 {
			t.Errorf("out[%d] = %v, want 1", i, v)
		}
	}
	// DFT of constant c is (n*c, 0, 0, ...).
	in = []complex128{2, 2, 2, 2}
	out = DFT(in, Forward)
	if math.Abs(real(out[0])-8) > 1e-12 {
		t.Errorf("out[0] = %v, want 8", out[0])
	}
	for i := 1; i < 4; i++ {
		if math.Abs(real(out[i])) > 1e-12 || math.Abs(imag(out[i])) > 1e-12 {
			t.Errorf("out[%d] = %v, want 0", i, out[i])
		}
	}
}

func TestRadix2MatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		in := randComplex(rng, n)
		want := DFT(in, Forward)
		got := make([]complex128, n)
		copy(got, in)
		if err := Radix2(got, Forward); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e := maxError(got, want); e > 1e-8*float64(n) {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

func TestRadix2RejectsNonPow2(t *testing.T) {
	if err := Radix2(make([]complex128, 12), Forward); err == nil {
		t.Error("expected error for n=12")
	}
}

func TestMixedRadixMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 3, 5, 6, 7, 9, 12, 15, 20, 21, 35, 36, 60, 100, 120, 210} {
		in := randComplex(rng, n)
		want := DFT(in, Forward)
		got := MixedRadix(in, Forward)
		if e := maxError(got, want); e > 1e-8*float64(n) {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

func TestBluesteinPrimeSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{11, 13, 17, 31, 97, 101, 257} {
		in := randComplex(rng, n)
		want := DFT(in, Forward)
		got := Bluestein(in, Forward)
		if e := maxError(got, want); e > 1e-7*float64(n) {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{4, 12, 13, 64, 100} {
		in := randComplex(rng, n)
		fwd := MixedRadix(in, Forward)
		back := MixedRadix(fwd, Inverse)
		Normalize(back)
		if e := maxError(back, in); e > 1e-9*float64(n) {
			t.Errorf("n=%d: roundtrip error %g", n, e)
		}
	}
}

func TestBitReverseInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := randComplex(rng, 64)
	x := append([]complex128(nil), in...)
	BitReverse(x)
	BitReverse(x)
	if e := maxError(x, in); e != 0 {
		t.Errorf("double bit-reverse changed data: %g", e)
	}
	// Spot-check the permutation for n=8: index 1 (001) <-> 4 (100).
	y := []complex128{0, 1, 2, 3, 4, 5, 6, 7}
	BitReverse(y)
	want := []complex128{0, 4, 2, 6, 1, 5, 3, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("BitReverse(0..7) = %v, want %v", y, want)
		}
	}
}

// Property: the DFT is linear. Uses testing/quick over random scales.
func TestPropertyLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(ar, ai, br, bi float64) bool {
		n := 32
		x := randComplex(rng, n)
		y := randComplex(rng, n)
		a := complex(math.Mod(ar, 10), math.Mod(ai, 10))
		b := complex(math.Mod(br, 10), math.Mod(bi, 10))
		combo := make([]complex128, n)
		for i := range combo {
			combo[i] = a*x[i] + b*y[i]
		}
		fx := MixedRadix(x, Forward)
		fy := MixedRadix(y, Forward)
		fc := MixedRadix(combo, Forward)
		for i := range fc {
			want := a*fx[i] + b*fy[i]
			if d := fc[i] - want; math.Hypot(real(d), imag(d)) > 1e-7*(1+math.Hypot(real(want), imag(want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Parseval's theorem — energy is preserved up to factor n.
func TestPropertyParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		n := []int{8, 12, 17, 64}[int(uint64(seed)%4)]
		in := randComplex(rng, n)
		out := MixedRadix(in, Forward)
		var et, ef float64
		for i := range in {
			et += real(in[i])*real(in[i]) + imag(in[i])*imag(in[i])
			ef += real(out[i])*real(out[i]) + imag(out[i])*imag(out[i])
		}
		return math.Abs(ef-float64(n)*et) <= 1e-6*(1+ef)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: time shift corresponds to frequency-domain phase rotation.
func TestPropertyShiftTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 16
	in := randComplex(rng, n)
	shifted := make([]complex128, n)
	for i := range shifted {
		shifted[i] = in[(i+1)%n]
	}
	fin := MixedRadix(in, Forward)
	fshift := MixedRadix(shifted, Forward)
	for k := 0; k < n; k++ {
		angle := 2 * math.Pi * float64(k) / float64(n)
		want := fin[k] * complex(math.Cos(angle), math.Sin(angle))
		if d := fshift[k] - want; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("shift theorem violated at k=%d: %v vs %v", k, fshift[k], want)
		}
	}
}

func TestHasSmallFactors(t *testing.T) {
	for _, n := range []int{2, 6, 30, 210, 360} {
		if !HasSmallFactors(n) {
			t.Errorf("HasSmallFactors(%d) = false", n)
		}
	}
	for _, n := range []int{11, 13, 22, 143} {
		if HasSmallFactors(n) {
			t.Errorf("HasSmallFactors(%d) = true", n)
		}
	}
}

func TestScaleAndNormalize(t *testing.T) {
	x := []complex128{2, 4}
	Scale(x, 0.5)
	if x[0] != 1 || x[1] != 2 {
		t.Errorf("Scale: %v", x)
	}
	y := []complex128{4, 4, 4, 4}
	Normalize(y)
	if y[0] != 1 {
		t.Errorf("Normalize: %v", y)
	}
}

func BenchmarkRadix2_1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randComplex(rng, 1024)
	x := make([]complex128, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, in)
		_ = Radix2(x, Forward)
	}
}

func BenchmarkBluestein_1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randComplex(rng, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Bluestein(in, Forward)
	}
}

// TestTwiddleTableMatchesFresh checks that every cached twiddle table
// equals a fresh twiddles call bit for bit, for both directions and every
// power of two up to 65536, when several goroutines make the first use of
// each table at once, and that they all get the one shared table.
func TestTwiddleTableMatchesFresh(t *testing.T) {
	const maxLog = 16
	var c twiddleCache
	dirs := []Direction{Forward, Inverse}
	const goroutines = 8
	got := make([][2][maxLog + 1][]complex128, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the sizes from a different start, so
			// first uses collide on different tables.
			for i := 0; i <= maxLog; i++ {
				k := (i + g) % (maxLog + 1)
				for d, dir := range dirs {
					got[g][d][k] = c.table(1<<k, dir)
				}
			}
		}(g)
	}
	wg.Wait()
	for d, dir := range dirs {
		for k := 0; k <= maxLog; k++ {
			n := 1 << k
			want := twiddles(n, dir)
			for g := 0; g < goroutines; g++ {
				w := got[g][d][k]
				if len(w) != len(want) {
					t.Fatalf("%v n=%d: table has %d entries, want %d", dir, n, len(w), len(want))
				}
				if len(w) > 0 && &w[0] != &got[0][d][k][0] {
					t.Errorf("%v n=%d: goroutines %d and 0 got different tables", dir, n, g)
				}
				if !sameBits(w, want) {
					t.Fatalf("%v n=%d: cached table differs from a fresh twiddles call", dir, n)
				}
			}
			if !sameBits(sharedTwiddles.table(n, dir), want) {
				t.Errorf("%v n=%d: the process-wide table differs from a fresh twiddles call", dir, n)
			}
		}
	}
}

// sameBits reports whether a and b hold the same IEEE-754 bits.
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestKeptTablesMatchFresh checks MixedRadix, whose non-power-of-two
// lengths take their twiddles and chirps from kept tables, against the
// same algorithms computing every factor per call (freshMixed and
// freshBluestein below), bit for bit, in both directions. Several
// goroutines make the first use of each table at once. 2100 and 1031
// need tables over maxKeptTable entries, which are built per call and
// never kept.
func TestKeptTablesMatchFresh(t *testing.T) {
	for _, tables := range []*sync.Map{&mixedTables, &chirpTables} {
		tables.Range(func(k, _ any) bool { tables.Delete(k); return true })
	}
	sizes := []int{12, 20, 27, 60, 100, 101, 240, 2100, 1031}
	dirs := []Direction{Forward, Inverse}
	rng := rand.New(rand.NewSource(9))
	inputs := make([][]complex128, len(sizes))
	want := make([][2][]complex128, len(sizes))
	for i, n := range sizes {
		inputs[i] = randComplex(rng, n)
		for d, dir := range dirs {
			if HasSmallFactors(n) {
				want[i][d] = freshMixed(inputs[i], dir)
			} else {
				want[i][d] = freshBluestein(inputs[i], dir)
			}
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for j := range sizes {
				i := (j + g) % len(sizes)
				for d, dir := range dirs {
					if got := MixedRadix(inputs[i], dir); !sameBits(got, want[i][d]) {
						t.Errorf("goroutine %d, n=%d %v: kept tables give different bits", g, sizes[i], dir)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, dir := range dirs {
		if _, ok := mixedTables.Load(tableKey{2100, dir}); ok {
			t.Errorf("n=2100 %v: a table over the cap was kept", dir)
		}
		if _, ok := chirpTables.Load(tableKey{1031, dir}); ok {
			t.Errorf("n=1031 %v: a chirp table over the cap was kept", dir)
		}
		if _, ok := mixedTables.Load(tableKey{240, dir}); !ok {
			t.Errorf("n=240 %v: no table kept", dir)
		}
		if _, ok := chirpTables.Load(tableKey{101, dir}); !ok {
			t.Errorf("n=101 %v: no chirp table kept", dir)
		}
	}
}

// freshMixed is MixedRadix for a smooth non-power-of-two length with
// every twiddle computed where it is used.
func freshMixed(in []complex128, dir Direction) []complex128 {
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
	m := n / r
	subs := make([][]complex128, r)
	for q := 0; q < r; q++ {
		sub := make([]complex128, m)
		for i := 0; i < m; i++ {
			sub[i] = in[i*r+q]
		}
		subs[q] = freshMixed(sub, dir)
	}
	s := dir.sign()
	out := make([]complex128, n)
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

// freshBluestein is Bluestein building its chirp and transforming its
// kernel on every call.
func freshBluestein(in []complex128, dir Direction) []complex128 {
	n := len(in)
	s := dir.sign()
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
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
