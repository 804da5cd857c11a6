// Package facc_test keeps the evaluation benchmarks outside the facc
// package proper: they depend on internal/eval, which (via the serving
// benchmark's in-process faccd) depends back on facc — legal for an
// external test package, an import cycle for an internal one.
package facc_test

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus ablation benches for the design choices DESIGN.md calls out. Each
// benchmark regenerates its experiment and reports the headline numbers as
// custom metrics, so `go test -bench=.` reproduces the whole evaluation.

import (
	"context"
	"io"
	"testing"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/bench"
	"facc/internal/binding"
	"facc/internal/core"
	"facc/internal/eval"
	"facc/internal/minic"
	"facc/internal/synth"
)

// BenchmarkTable1 regenerates the benchmark feature matrix.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eval.Table1(io.Discard)
	}
	var loc int
	for _, bm := range bench.SupportedSuite() {
		loc += bm.LinesOfCode()
	}
	b.ReportMetric(float64(len(bench.SupportedSuite())), "programs")
	b.ReportMetric(float64(loc), "total-loc")
}

func compileOutcomes(b *testing.B, targets []string) []*eval.CompileOutcome {
	b.Helper()
	outcomes, err := eval.CompileAll(context.Background(), targets, 4, nil, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	return outcomes
}

// BenchmarkFig8 regenerates the success/failure classification.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outcomes := compileOutcomes(b, []string{"ffta"})
		eval.Fig8(io.Discard, outcomes)
		ok := 0
		for _, oc := range outcomes {
			if oc.OK {
				ok++
			}
		}
		b.ReportMetric(float64(ok)/25, "fraction-supported")
	}
}

// BenchmarkFig9 regenerates the strategy comparison (IDL / ProGraML / FACC).
func BenchmarkFig9(b *testing.B) {
	clf, err := core.TrainClassifier(10, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outcomes := compileOutcomes(b, []string{"ffta"})
		if err := eval.Fig9(io.Discard, outcomes, clf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 regenerates the ADSP-board offloading comparison.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prof := eval.NewProfiler()
		if err := eval.Fig10(io.Discard, prof); err != nil {
			b.Fatal(err)
		}
		var dsp, acc []float64
		ffta := accel.NewFFTA()
		for _, bm := range bench.SupportedSuite() {
			m, err := prof.Measure(bm, bm.PerfSize)
			if err != nil {
				b.Fatal(err)
			}
			dsp = append(dsp, eval.DSPSpeedup(m))
			acc = append(acc, eval.Speedup(m, ffta))
		}
		b.ReportMetric(eval.GeoMean(dsp), "dsp-geomean-x")
		b.ReportMetric(eval.GeoMean(acc), "ffta-geomean-x")
	}
}

// BenchmarkFig11 regenerates the classifier cross-validation curves
// (reduced protocol; run cmd/faccbench -experiment fig11 -full for the
// paper-size run).
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Fig11(io.Discard, eval.Fig11Config{
			PerClass: 8, Folds: 3, TrainSizes: []int{2, 6}, Seed: 1, MaxEpochs: 30,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].FFTRecallMean, "fft-top3-recall")
		b.ReportMetric(rows[len(rows)-1].Top3Mean, "top3-acc")
	}
}

// BenchmarkFig12 regenerates the IDL pattern-prefix decay.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := eval.Fig12(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13 regenerates the three-platform speedup table.
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prof := eval.NewProfiler()
		if err := eval.Fig13(io.Discard, prof); err != nil {
			b.Fatal(err)
		}
		for _, spec := range accel.Specs() {
			var xs []float64
			for _, bm := range bench.SupportedSuite() {
				if !spec.Supports(bm.PerfSize) {
					continue
				}
				m, err := prof.Measure(bm, bm.PerfSize)
				if err != nil {
					b.Fatal(err)
				}
				xs = append(xs, eval.Speedup(m, spec))
			}
			b.ReportMetric(eval.GeoMean(xs), spec.Name+"-geomean-x")
		}
	}
}

// BenchmarkFig14 regenerates the speedup-vs-size sweep.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prof := eval.NewProfiler()
		if err := eval.Fig14(io.Discard, prof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15 regenerates the compile-time CDF.
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outcomes := compileOutcomes(b, []string{"ffta", "powerquad", "fftw"})
		eval.Fig15(io.Discard, outcomes)
	}
}

// BenchmarkFig16 regenerates the binding-candidate CDF.
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outcomes := compileOutcomes(b, []string{"ffta", "powerquad", "fftw"})
		eval.Fig16(io.Discard, outcomes)
		max := map[string]int{}
		for _, oc := range outcomes {
			if oc.Candidates > max[oc.Target] {
				max[oc.Target] = oc.Candidates
			}
		}
		b.ReportMetric(float64(max["ffta"]), "ffta-max-candidates")
		b.ReportMetric(float64(max["fftw"]), "fftw-max-candidates")
	}
}

// ---- Ablations (DESIGN.md "Key design decisions") ----

func ablationSetup(b *testing.B) (*minic.File, *minic.FuncDecl, *analysis.Profile) {
	b.Helper()
	bm, err := bench.ByName("bigmixed") // direction flag + extra scalars
	if err != nil {
		b.Fatal(err)
	}
	f, err := minic.ParseAndCheck(bm.File, bm.Source())
	if err != nil {
		b.Fatal(err)
	}
	return f, f.Func(bm.Entry), core.BuildProfile(bm.ProfileValues)
}

// BenchmarkAblationHeuristics measures the binding search space with and
// without the range/single-read heuristics (design decision 1).
func BenchmarkAblationHeuristics(b *testing.B) {
	f, fn, profile := ablationSetup(b)
	fi := analysis.AnalyzeFunc(f, fn)
	spec := accel.NewFFTWLib()
	var with, without int
	for i := 0; i < b.N; i++ {
		with = len(binding.Enumerate(fi, spec, profile, binding.Options{}))
		without = len(binding.Enumerate(fi, spec, profile, binding.Options{
			DisableRangeHeuristic: true,
			DisableSingleRead:     true,
		}))
	}
	b.ReportMetric(float64(with), "candidates-with-heuristics")
	b.ReportMetric(float64(without), "candidates-without")
}

// BenchmarkAblationIOTests measures how many candidates survive fuzzing as
// the IO-example budget grows (design decision 3).
func BenchmarkAblationIOTests(b *testing.B) {
	f, fn, profile := ablationSetup(b)
	spec := accel.NewPowerQuad()
	for i := 0; i < b.N; i++ {
		for _, tests := range []int{1, 4, 10} {
			res, err := synth.Synthesize(context.Background(), f, fn, spec, profile, synth.Options{
				NumTests:   tests,
				ExhaustAll: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			switch tests {
			case 1:
				b.ReportMetric(float64(res.Survivors), "survivors-1-test")
			case 4:
				b.ReportMetric(float64(res.Survivors), "survivors-4-tests")
			case 10:
				b.ReportMetric(float64(res.Survivors), "survivors-10-tests")
			}
		}
	}
}

// BenchmarkSynthesizeOne measures end-to-end adapter synthesis for a
// mid-size corpus program on each target.
func BenchmarkSynthesizeOne(b *testing.B) {
	bm, err := bench.ByName("iterdit")
	if err != nil {
		b.Fatal(err)
	}
	for _, target := range []string{"ffta", "powerquad", "fftw"} {
		target := target
		b.Run(target, func(b *testing.B) {
			spec, _ := accel.SpecByName(target)
			for i := 0; i < b.N; i++ {
				f, err := minic.ParseAndCheck(bm.File, bm.Source())
				if err != nil {
					b.Fatal(err)
				}
				res, err := synth.Synthesize(context.Background(), f, f.Func(bm.Entry), spec,
					core.BuildProfile(bm.ProfileValues), synth.Options{NumTests: 4})
				if err != nil {
					b.Fatal(err)
				}
				if res.Adapter == nil {
					b.Fatal("no adapter")
				}
			}
		})
	}
}

// BenchmarkInterpreterFFT measures the interpreter executing a 256-point
// corpus FFT (the evaluation's inner loop), per run and per interpreted
// step.
func BenchmarkInterpreterFFT(b *testing.B) {
	bm, err := bench.ByName("iterdit")
	if err != nil {
		b.Fatal(err)
	}
	r, err := bench.NewRunner(bm)
	if err != nil {
		b.Fatal(err)
	}
	in := make([]complex128, 256)
	for i := range in {
		in[i] = complex(float64(i%7), float64(i%5))
	}
	before := r.Machine.TotalCounters().Steps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(in); err != nil {
			b.Fatal(err)
		}
	}
	steps := r.Machine.TotalCounters().Steps - before
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// BenchmarkInterpCorpus measures the interpreter over the whole corpus:
// one op runs each of the programs that have a driver once, at the
// largest of n = 256, 64 and 16 the program supports, and the benchmark
// reports time per interpreted step and Go allocations per op.
func BenchmarkInterpCorpus(b *testing.B) {
	type run struct {
		r  *bench.Runner
		in []complex128
	}
	var runs []run
	for _, bm := range bench.Suite() {
		if len(bm.Driver) == 0 {
			continue
		}
		n := 0
		for _, size := range []int{256, 64, 16} {
			if bm.SupportsSize(size) {
				n = size
				break
			}
		}
		if n == 0 {
			continue
		}
		r, err := bench.NewRunner(bm)
		if err != nil {
			b.Fatal(err)
		}
		in := make([]complex128, n)
		for i := range in {
			in[i] = complex(float64(i%7), float64(i%5))
		}
		runs = append(runs, run{r, in})
	}
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range runs {
			x.r.Machine.Reset()
			if _, err := x.r.Run(x.in); err != nil {
				b.Fatal(err)
			}
			steps += x.r.Machine.Counters.Steps
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	b.ReportMetric(float64(len(runs)), "programs")
}
