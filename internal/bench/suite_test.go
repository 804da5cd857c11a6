package bench

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"facc/internal/fft"
	"facc/internal/interp"
	"facc/internal/minic"
)

func TestSuiteShape(t *testing.T) {
	s := Suite()
	if len(s) != 25 {
		t.Fatalf("suite has %d programs, want 25", len(s))
	}
	if len(SupportedSuite()) != 18 {
		t.Fatalf("supported = %d, want 18", len(SupportedSuite()))
	}
	counts := FailureCounts()
	if counts[Supported] != 18 || counts[FailInterface] != 3 ||
		counts[FailVoidPointer] != 2 || counts[FailPrintf] != 1 ||
		counts[FailNestedMem] != 1 {
		t.Errorf("failure counts = %v", counts)
	}
	for i, b := range s {
		if b.ID != i {
			t.Errorf("suite not in ID order at %d", i)
		}
		if b.PerfSize == 0 {
			t.Errorf("%s: missing PerfSize", b.Name)
		}
	}
}

func TestAllProgramsParseAndCheck(t *testing.T) {
	for _, b := range Suite() {
		if _, err := minic.ParseAndCheck(b.File, b.Source()); err != nil {
			t.Errorf("%s: frontend rejects corpus program: %v", b.Name, err)
		}
	}
}

func TestLinesOfCodeSpread(t *testing.T) {
	// The corpus must span the paper's diversity: a ~dozen-line DFT up to
	// a multi-hundred-line hand-optimized library.
	small, _ := ByName("dft12")
	if loc := small.LinesOfCode(); loc > 25 {
		t.Errorf("dft12 is %d lines, should be tiny", loc)
	}
	big, _ := ByName("handopt")
	if loc := big.LinesOfCode(); loc < 300 {
		t.Errorf("handopt is %d lines, should be large", loc)
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("iterdit")
	if err != nil || b.ID != 3 {
		t.Errorf("ByName(iterdit) = %v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown name")
	}
}

// testSizes picks small validation sizes from the profiled environment.
func testSizes(b *Benchmark) []int {
	if b.ID == 0 {
		return []int{64}
	}
	var sizes []int
	for _, v := range b.ProfileValues["n"] {
		if v <= 128 {
			sizes = append(sizes, int(v))
		}
	}
	if len(sizes) == 0 {
		sizes = []int{64}
	}
	return sizes
}

func randSignal(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

// TestSupportedBenchmarksComputeDFT validates every supported program
// against the reference DFT — the corpus itself must be correct before
// FACC's claims about it mean anything.
func TestSupportedBenchmarksComputeDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, b := range SupportedSuite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			r, err := NewRunner(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range testSizes(b) {
				in := randSignal(rng, n)
				got, err := r.Run(in)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				want := fft.DFT(in, fft.Forward)
				if b.Normalized {
					fft.Normalize(want)
				}
				if b.BitReversedOut {
					fft.BitReverse(want)
				}
				// Single-precision corpus members need a looser bound.
				tol := 1e-6 * float64(n)
				if b.ComplexRepr == "custom" || b.ComplexRepr == "none" {
					tol = 1e-3
				}
				if e := relError(got, want); e > tol {
					t.Errorf("n=%d: relative error %g (tol %g)", n, e, tol)
				}
			}
		})
	}
}

// relError returns max |got-want| / (1 + max|want|).
func relError(got, want []complex128) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	norm := 0.0
	for _, v := range want {
		if m := cmplx.Abs(v); m > norm {
			norm = m
		}
	}
	worst := 0.0
	for i := range got {
		if d := cmplx.Abs(got[i] - want[i]); d > worst {
			worst = d
		}
	}
	return worst / (1 + norm)
}

// TestMemoizationPersistsAcrossRuns exercises project11's global cache.
func TestMemoizationPersistsAcrossRuns(t *testing.T) {
	b, _ := ByName("memotw")
	r, err := NewRunner(b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	in := randSignal(rng, 64)
	c1, err := r.MeasureCounters(in)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := r.MeasureCounters(in)
	if err != nil {
		t.Fatal(err)
	}
	// The second run hits the twiddle cache: fewer math calls.
	if c2.MathCalls >= c1.MathCalls {
		t.Errorf("memoization not effective: %d then %d math calls",
			c1.MathCalls, c2.MathCalls)
	}
	// And the result stays correct.
	got, err := r.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	want := fft.DFT(in, fft.Forward)
	if e := relError(got, want); e > 1e-6 {
		t.Errorf("cached run wrong: %g", e)
	}
}

// TestUnsupportedProgramsStillWork: the seven rejected programs are valid
// code (FACC refuses them for interface reasons, not because they are
// broken). Spot-check their behavior directly.
func TestUnsupportedMagSpectrum(t *testing.T) {
	b, _ := ByName("magspectrum")
	f, err := minic.ParseAndCheck(b.File, b.Source())
	if err != nil {
		t.Fatal(err)
	}
	m, err := interp.NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	n := 16
	rng := rand.New(rand.NewSource(9))
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = rng.NormFloat64()
	}
	sigArr, _ := m.NewArray("signal", minic.Double, n)
	magArr, _ := m.NewArray("mags", minic.Double, n)
	if err := m.SetFloatArray(sigArr, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CallNamed("fft_mag", []interp.Value{sigArr, magArr, interp.IntValue(int64(n))}); err != nil {
		t.Fatal(err)
	}
	got, err := m.GetFloatArray(magArr, n)
	if err != nil {
		t.Fatal(err)
	}
	cin := make([]complex128, n)
	for i, v := range sig {
		cin[i] = complex(v, 0)
	}
	spec := fft.DFT(cin, fft.Forward)
	for i := range got {
		if math.Abs(got[i]-cmplx.Abs(spec[i])) > 1e-9*(1+cmplx.Abs(spec[i])) {
			t.Fatalf("magnitude %d: got %g want %g", i, got[i], cmplx.Abs(spec[i]))
		}
	}
}

func TestUnsupportedVerbosePrints(t *testing.T) {
	b, _ := ByName("verbose")
	f, err := minic.ParseAndCheck(b.File, b.Source())
	if err != nil {
		t.Fatal(err)
	}
	m, err := interp.NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	elem := f.Func("fft_verbose").Params[0].Type.Elem
	arr, _ := m.NewArray("x", elem, 8)
	if _, err := m.CallNamed("fft_verbose", []interp.Value{arr, interp.IntValue(8)}); err != nil {
		t.Fatal(err)
	}
	if m.Output() == "" {
		t.Error("verbose benchmark produced no output")
	}
}

func TestUnsupportedRowPlan(t *testing.T) {
	b, _ := ByName("rowplan")
	f, err := minic.ParseAndCheck(b.File, b.Source())
	if err != nil {
		t.Fatal(err)
	}
	m, err := interp.NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	nrows, n := 2, 8
	rowType := minic.PointerTo(minic.ComplexDouble)
	rows, err := m.NewArray("rows", rowType, nrows)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	inputs := make([][]complex128, nrows)
	rowVals := make([]interp.Value, nrows)
	for r := 0; r < nrows; r++ {
		rowArr, err := m.NewArray("row", minic.ComplexDouble, n)
		if err != nil {
			t.Fatal(err)
		}
		inputs[r] = randSignal(rng, n)
		if err := m.SetComplexArray(rowArr, inputs[r]); err != nil {
			t.Fatal(err)
		}
		rowVals[r] = rowArr
	}
	// Store the row pointers into the rows array.
	for r := 0; r < nrows; r++ {
		p := rows.Addr()
		p.Off += r
		if err := m.StoreScalar(p, rowVals[r], minic.Pos{}); err != nil {
			t.Fatal(err)
		}
	}
	args := []interp.Value{rows, interp.IntValue(int64(nrows)), interp.IntValue(int64(n))}
	if _, err := m.CallNamed("fft_rows", args); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nrows; r++ {
		got, err := m.GetComplexArray(rowVals[r], n)
		if err != nil {
			t.Fatal(err)
		}
		want := fft.DFT(inputs[r], fft.Forward)
		if e := relError(got, want); e > 1e-9 {
			t.Fatalf("row %d error %g", r, e)
		}
	}
}

func TestUnsupportedVoidGeneric(t *testing.T) {
	b, _ := ByName("voidgeneric")
	f, err := minic.ParseAndCheck(b.File, b.Source())
	if err != nil {
		t.Fatal(err)
	}
	m, err := interp.NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	elem := minic.Type{}
	_ = elem
	// Locate the struct type via the file's typedef.
	var structType *minic.Type
	for _, td := range f.Typedefs {
		if td.Name == "vc21" {
			structType = td.Type
		}
	}
	if structType == nil {
		t.Fatal("vc21 typedef missing")
	}
	n := 8
	arr, err := m.NewArray("data", structType, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	in := randSignal(rng, n)
	if err := m.SetStructComplexArray(arr, in, 0, 1); err != nil {
		t.Fatal(err)
	}
	args := []interp.Value{arr, interp.IntValue(int64(n)), interp.IntValue(16)}
	if _, err := m.CallNamed("fft_generic", args); err != nil {
		t.Fatal(err)
	}
	got, err := m.GetStructComplexArray(arr, n, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := fft.DFT(in, fft.Forward)
	if e := relError(got, want); e > 1e-9 {
		t.Fatalf("error %g", e)
	}
}
