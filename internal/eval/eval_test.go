package eval

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"facc/internal/accel"
	"facc/internal/bench"
	"facc/internal/core"
)

// TestCompileAllCancellation: cancelling the context stops the corpus
// fan-out promptly — the call returns an error wrapping the context's,
// and no worker goroutine outlives it.
func TestCompileAllCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := CompileAll(ctx, []string{"ffta", "powerquad", "fftw"}, 4, nil, nil)
	if err == nil {
		t.Fatal("CompileAll succeeded under a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled corpus compile took %v", d)
	}
	settle := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(settle) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("workers leaked: %d goroutines before, %d after", before, after)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %g", g)
	}
	if GeoMean(nil) != 0 {
		t.Error("empty geomean")
	}
}

func TestSupports(t *testing.T) {
	b0 := bench.Suite()[0]
	if !Supports(b0, 64) || Supports(b0, 128) {
		t.Error("fixed64 domain wrong")
	}
	b1 := bench.Suite()[1]
	if !Supports(b1, 256) || Supports(b1, 512) || Supports(b1, 100) {
		t.Error("table256 domain wrong")
	}
	b4 := bench.Suite()[4]
	if !Supports(b4, 1000) {
		t.Error("mixed-radix should support 1000")
	}
}

func TestProfilerMeasuresAndCaches(t *testing.T) {
	prof := NewProfiler()
	b := bench.Suite()[3] // iterdit
	m1, err := prof.Measure(b, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Counters.FloatOps == 0 {
		t.Error("no float ops counted")
	}
	m2, err := prof.Measure(b, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("measurement not cached")
	}
	if _, err := prof.Measure(b, 100); err == nil {
		t.Error("expected unsupported-size error")
	}
}

func TestSpeedupsGrowWithSize(t *testing.T) {
	prof := NewProfiler()
	b := bench.Suite()[3]
	ffta := accel.NewFFTA()
	m64, err := prof.Measure(b, 64)
	if err != nil {
		t.Fatal(err)
	}
	m256, err := prof.Measure(b, 256)
	if err != nil {
		t.Fatal(err)
	}
	if Speedup(m64, ffta) >= Speedup(m256, ffta) {
		t.Error("speedup should grow with size (offload model)")
	}
	if DSPSpeedup(m256) < 2 || DSPSpeedup(m256) > 6 {
		t.Errorf("DSP speedup = %.1f, out of expected band", DSPSpeedup(m256))
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	if !strings.Contains(out, "Radix-2 FFT") || !strings.Contains(out, "Bluestein") {
		t.Errorf("table 1 incomplete:\n%s", out)
	}
	if strings.Count(out, "\n") < 19 {
		t.Error("table 1 should have 18 rows plus headers")
	}
}

func TestFig12Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig12(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "length") {
		t.Errorf("fig12 output:\n%s", out)
	}
	// The 50-atom row must report exactly 1 match.
	found := false
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == "50" {
			found = true
			if fields[1] != "1" {
				t.Errorf("50-atom prefix matches %s, want 1", fields[1])
			}
		}
	}
	if !found {
		t.Error("no 50-atom row")
	}
}

func TestCompileAllAndFigures8_15_16(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus compile")
	}
	outcomes, err := CompileAll(context.Background(), []string{"ffta", "powerquad", "fftw"}, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 75 {
		t.Fatalf("outcomes = %d, want 75", len(outcomes))
	}

	var buf bytes.Buffer
	Fig8(&buf, outcomes)
	out := buf.String()
	if !strings.Contains(out, "supported                    18/25  (0.72)") {
		t.Errorf("fig8 fractions wrong:\n%s", out)
	}

	private, err := CompileAllPrivate(context.Background(), []string{"ffta", "powerquad", "fftw"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	Fig15(&buf, private, outcomes)
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 5 ||
		!strings.HasPrefix(lines[1], "ffta") || strings.Count(lines[4], "p100=") != 3 {
		t.Errorf("fig15 output:\n%s", buf.String())
	}

	buf.Reset()
	Fig16(&buf, outcomes)
	out = buf.String()
	if !strings.Contains(out, "ffta") {
		t.Errorf("fig16 output:\n%s", out)
	}
	// FFTA and PowerQuad candidate distributions must coincide; FFTW must
	// dominate (paper Fig. 16).
	var fftaMax, pqMax, fftwMax int
	for _, oc := range outcomes {
		switch oc.Target {
		case "ffta":
			if oc.Candidates > fftaMax {
				fftaMax = oc.Candidates
			}
		case "powerquad":
			if oc.Candidates > pqMax {
				pqMax = oc.Candidates
			}
		case "fftw":
			if oc.Candidates > fftwMax {
				fftwMax = oc.Candidates
			}
		}
	}
	if fftaMax != pqMax {
		t.Errorf("FFTA max candidates %d != PowerQuad %d", fftaMax, pqMax)
	}
	if fftwMax <= fftaMax {
		t.Errorf("FFTW max candidates %d should exceed FFTA %d", fftwMax, fftaMax)
	}
}

func TestFig10And13Geomeans(t *testing.T) {
	if testing.Short() {
		t.Skip("slow measurement")
	}
	prof := NewProfiler()
	var buf bytes.Buffer
	if err := Fig10(&buf, prof); err != nil {
		t.Fatal(err)
	}
	if err := Fig13(&buf, prof); err != nil {
		t.Fatal(err)
	}
	if err := Fig14(&buf, prof); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The calibrated geomeans must land near the paper's numbers.
	checkGeomean := func(spec *accel.Spec, lo, hi float64) {
		var xs []float64
		for _, b := range bench.SupportedSuite() {
			m, err := prof.Measure(b, b.PerfSize)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Supports(b.PerfSize) {
				xs = append(xs, Speedup(m, spec))
			}
		}
		g := GeoMean(xs)
		if g < lo || g > hi {
			t.Errorf("%s geomean = %.1fx, want in [%.0f, %.0f] (paper shape)",
				spec.Name, g, lo, hi)
		}
	}
	checkGeomean(accel.NewFFTA(), 18, 40)      // paper: 27x
	checkGeomean(accel.NewPowerQuad(), 11, 26) // paper: 17x
	checkGeomean(accel.NewFFTWLib(), 6, 14)    // paper: 9x
	var dsp []float64
	for _, b := range bench.SupportedSuite() {
		m, _ := prof.Measure(b, b.PerfSize)
		dsp = append(dsp, DSPSpeedup(m))
	}
	if g := GeoMean(dsp); g < 2.5 || g > 5 {
		t.Errorf("DSP geomean = %.1fx, want near 3.5x", g)
	}
	if !strings.Contains(out, "geomean") {
		t.Error("missing geomean rows")
	}
	// DFT benchmarks must show the outsized speedups the paper reports.
	dft, _ := bench.ByName("dft12")
	m, err := prof.Measure(dft, dft.PerfSize)
	if err != nil {
		t.Fatal(err)
	}
	if s := Speedup(m, accel.NewPowerQuad()); s < 500 {
		t.Errorf("DFT-on-PowerQuad speedup = %.0fx; paper reports ~10^4", s)
	}
}

func TestFig11SmallConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	var buf bytes.Buffer
	rows, err := Fig11(&buf, Fig11Config{
		PerClass: 6, Folds: 3, TrainSizes: []int{2, 4}, Seed: 3, MaxEpochs: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More training data must not hurt much; recall should be decent by 4.
	if rows[1].FFTRecallMean < 0.5 {
		t.Errorf("FFT recall with 4 examples = %.2f", rows[1].FFTRecallMean)
	}
}

func TestFig9Output(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	clf, err := core.TrainClassifier(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := CompileAll(context.Background(), []string{"ffta"}, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig9(&buf, outcomes, clf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "IDL        compiled=0.04") {
		t.Errorf("IDL should compile exactly 1/25:\n%s", out)
	}
	if !strings.Contains(out, "FACC       compiled=0.72") {
		t.Errorf("FACC should compile 18/25:\n%s", out)
	}
}

func TestAblationOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := Ablation(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "with heuristics") || !strings.Contains(out, "survivors") {
		t.Errorf("ablation output:\n%s", out)
	}
}

// TestFig14CrossoverShape pins the paper's qualitative claims: speedups
// grow with input size and the small-size end sits at/below breakeven for
// the overhead-heavy targets.
func TestFig14CrossoverShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow measurement")
	}
	prof := NewProfiler()
	spec := accel.NewPowerQuad()
	var prev float64
	for _, n := range []int{16, 64, 256, 1024} {
		var xs []float64
		for _, b := range bench.SupportedSuite() {
			if b.ID < 1 || b.ID > 7 || !Supports(b, n) || !spec.Supports(n) {
				continue
			}
			m, err := prof.Measure(b, n)
			if err != nil {
				t.Fatal(err)
			}
			xs = append(xs, Speedup(m, spec))
		}
		g := GeoMean(xs)
		if g <= prev {
			t.Errorf("speedup not monotone at n=%d: %.2f after %.2f", n, g, prev)
		}
		if n == 16 && g > 2.5 {
			t.Errorf("n=16 speedup %.2f; expected near-breakeven (paper crossover)", g)
		}
		prev = g
	}
}
