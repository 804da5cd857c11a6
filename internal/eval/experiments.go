package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/bench"
	"facc/internal/binding"
	"facc/internal/core"
	"facc/internal/gnn"
	"facc/internal/idl"
	"facc/internal/minic"
	"facc/internal/obs"
	"facc/internal/ojclone"
	"facc/internal/synth"
)

// CompileOutcome is one (benchmark, target) pipeline run.
type CompileOutcome struct {
	Bench      *bench.Benchmark
	Target     string
	OK         bool
	FailReason string
	Candidates int
	Elapsed    time.Duration
}

// CompileAll runs FACC over the whole corpus for each target. Compilations
// are independent, so they fan out across a worker pool sized by
// GOMAXPROCS (never unbounded); results come back in deterministic
// (target, benchmark) order. ctx (nil means Background) cancels the run:
// queued jobs are abandoned, in-flight compilations stop at their next
// cancellation poll, and every worker has exited by the time CompileAll
// returns — no goroutine outlives the call. tr (may be nil) collects
// spans and metrics across all compilations — the tracer is safe for
// concurrent use, and each compilation gets its own root span, so Fig15
// timings are exactly the span durations. ev (may be nil) collects the
// candidate-event stream across the whole corpus, which the provenance
// report, the cost ledger and the search observatory fold; event
// interleaving between compilations follows worker scheduling, but each
// event names its function and target, so per-function provenance stays
// coherent.
func CompileAll(ctx context.Context, targets []string, numTests int, tr *obs.Tracer, ev *obs.Events) ([]*CompileOutcome, error) {
	return compileAll(ctx, targets, numTests, tr, ev, false)
}

// CompileAllPrivate compiles the corpus like CompileAll, but one pair at
// a time, each with its own oracle cache, so every compile pays for its
// own reference runs: the protocol Fig. 15 times. Under CompileAll's
// shared caches, queued after every FFTA job, the PowerQuad and FFTW
// compiles replay FFTA's reference runs.
func CompileAllPrivate(ctx context.Context, targets []string, numTests int) ([]*CompileOutcome, error) {
	return compileAll(ctx, targets, numTests, nil, nil, true)
}

func compileAll(ctx context.Context, targets []string, numTests int, tr *obs.Tracer, ev *obs.Events, private bool) ([]*CompileOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	suite := bench.Suite()
	type job struct {
		idx    int
		target string
		b      *bench.Benchmark
	}
	var jobs []job
	for _, target := range targets {
		for _, b := range suite {
			jobs = append(jobs, job{idx: len(jobs), target: target, b: b})
		}
	}
	// One oracle cache per benchmark, shared by its compiles across all
	// targets: oracle keys are target-independent, so the user program's
	// reference runs are interpreted once instead of once per target.
	// The cache is concurrency-safe, so it does not constrain the worker
	// pool's schedule.
	caches := map[string]*synth.OracleCache{}
	for _, b := range suite {
		caches[b.Name] = synth.NewOracleCache()
	}
	out := make([]*CompileOutcome, len(jobs))
	errs := make([]error, len(jobs))

	workers := runtime.GOMAXPROCS(0)
	if private {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	// Two parallelism levels compose here: file-level workers (this pool)
	// and case-level workers inside each synthesis (synth.Options.
	// Workers). Splitting the CPU budget between them keeps the total
	// goroutine pressure near GOMAXPROCS instead of workers × GOMAXPROCS.
	synthWorkers := runtime.GOMAXPROCS(0) / workers
	if synthWorkers < 1 {
		synthWorkers = 1
	}
	jobCh := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobCh {
				if ctx.Err() != nil {
					return // drain stops below; abandon queued work
				}
				oc := caches[jb.b.Name]
				if private {
					oc = synth.NewOracleCache()
				}
				out[jb.idx], errs[jb.idx] = compileOne(ctx, jb.target, jb.b,
					numTests, synthWorkers, tr, ev, oc)
			}
		}()
	}
feed:
	for _, jb := range jobs {
		select {
		case jobCh <- jb:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobCh)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("eval: corpus compilation cancelled: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func compileOne(ctx context.Context, target string, b *bench.Benchmark, numTests, synthWorkers int, tr *obs.Tracer, ev *obs.Events, oc *synth.OracleCache) (*CompileOutcome, error) {
	spec, err := accel.SpecByName(target)
	if err != nil {
		return nil, err
	}
	comp, err := core.CompileSource(ctx, b.File, b.Source(), spec, core.Options{
		Entry:         b.Entry,
		ProfileValues: b.ProfileValues,
		Trace:         tr,
		Events:        ev,
		Synth:         synth.Options{NumTests: numTests, Workers: synthWorkers, Oracle: oc},
	})
	if err != nil {
		return nil, err
	}
	return &CompileOutcome{
		Bench: b, Target: target,
		OK:         comp.Success() != nil,
		FailReason: comp.FailReason(),
		Candidates: comp.TotalCandidates(),
		Elapsed:    comp.Elapsed,
	}, nil
}

// Table1 prints the feature matrix of the supported corpus.
func Table1(w io.Writer) {
	fmt.Fprintf(w, "Table 1: benchmark feature matrix (18 supported programs)\n")
	fmt.Fprintf(w, "%-3s %-12s %5s %-10s %-22s %-18s %-7s %-4s %-20s %s\n",
		"ID", "Name", "LoC", "Lengths", "Algorithm", "Twiddles", "Complex",
		"Ptr", "Loops", "Optimizations")
	for _, b := range bench.SupportedSuite() {
		ptr := "No"
		if b.PointerArith {
			ptr = "Yes"
		}
		fmt.Fprintf(w, "%-3d %-12s %5d %-10s %-22s %-18s %-7s %-4s %-20s %s\n",
			b.ID, b.Name, b.LinesOfCode(), b.Lengths, b.Algorithm, b.Twiddles,
			b.ComplexRepr, ptr, b.LoopStructure, b.Optimizations)
	}
}

// Fig8 prints the FACC success/failure classification.
func Fig8(w io.Writer, outcomes []*CompileOutcome) {
	fmt.Fprintf(w, "Figure 8: FACC success and failure classification (fraction of 25 programs)\n")
	counts := map[string]int{}
	total := 0
	for _, oc := range outcomes {
		if oc.Target != "ffta" {
			continue
		}
		total++
		if oc.OK {
			counts["supported"]++
		} else {
			counts[oc.FailReason]++
		}
	}
	order := []string{"supported", "interface-incompatibility", "void-pointer", "printf", "nested-memory"}
	for _, k := range order {
		fmt.Fprintf(w, "%-28s %2d/%d  (%.2f)\n", k, counts[k], total,
			float64(counts[k])/float64(total))
	}
}

// Fig9 compares strategies: IDL, the ProGraML classifier, and FACC.
func Fig9(w io.Writer, outcomes []*CompileOutcome, clf *core.Classifier) error {
	fmt.Fprintf(w, "Figure 9: fraction of the 25 FFT programs handled per strategy\n")
	suite := bench.Suite()

	// IDL: the pattern authored from benchmark 0 (paper §8.2).
	b0 := suite[0]
	f0, err := minic.ParseAndCheck(b0.File, b0.Source())
	if err != nil {
		return err
	}
	pattern := idl.Extract(f0, f0.Func(b0.Entry))
	idlCompiled := 0
	for _, b := range suite {
		f, err := minic.ParseAndCheck(b.File, b.Source())
		if err != nil {
			return err
		}
		if idl.Matches(pattern, idl.Extract(f, f.Func(b.Entry))) {
			idlCompiled++
		}
	}

	// ProGraML: classification finds the region (matched) but cannot
	// generate accelerator bindings (compiled = 0).
	matched := 0
	for _, b := range suite {
		f, err := minic.ParseAndCheck(b.File, b.Source())
		if err != nil {
			return err
		}
		for _, name := range clf.CandidateFunctions(f) {
			if name == b.Entry {
				matched++
				break
			}
		}
	}

	faccCompiled := 0
	for _, oc := range outcomes {
		if oc.Target == "ffta" && oc.OK {
			faccCompiled++
		}
	}

	n := float64(len(suite))
	fmt.Fprintf(w, "%-10s compiled=%.2f matched=%.2f unmatched=%.2f\n",
		"IDL", float64(idlCompiled)/n, 0.0, 1-float64(idlCompiled)/n)
	fmt.Fprintf(w, "%-10s compiled=%.2f matched=%.2f unmatched=%.2f\n",
		"ProGraML", 0.0, float64(matched)/n, 1-float64(matched)/n)
	fmt.Fprintf(w, "%-10s compiled=%.2f matched=%.2f unmatched=%.2f\n",
		"FACC", float64(faccCompiled)/n, 0.0, 1-float64(faccCompiled)/n)
	return nil
}

// Fig10 prints per-benchmark speedups on the ADSP board: the ProGraML→DSP
// baseline vs FACC→FFTA.
func Fig10(w io.Writer, prof *Profiler) error {
	fmt.Fprintf(w, "Figure 10: offloading on the ADSP board (vs Cortex-A5 software)\n")
	fmt.Fprintf(w, "%-3s %-12s %6s %12s %12s\n", "ID", "Name", "N", "DSP(x)", "FFTA(x)")
	ffta := accel.NewFFTA()
	var dsp, acc []float64
	for _, b := range bench.SupportedSuite() {
		n := b.PerfSize
		m, err := prof.Measure(b, n)
		if err != nil {
			return err
		}
		d := DSPSpeedup(m)
		a := Speedup(m, ffta)
		dsp = append(dsp, d)
		acc = append(acc, a)
		fmt.Fprintf(w, "%-3d %-12s %6d %12.1f %12.1f\n", b.ID, b.Name, n, d, a)
	}
	fmt.Fprintf(w, "geomean %26.1f %12.1f   (paper: 3.5x and 27x)\n",
		GeoMean(dsp), GeoMean(acc))
	return nil
}

// Fig11Config sizes the cross-validation experiment.
type Fig11Config struct {
	PerClass   int   // instances per class (paper: 20)
	Folds      int   // cross-validation folds (paper: 10)
	TrainSizes []int // x axis: train instances per class
	Seed       int64
	MaxEpochs  int
}

// DefaultFig11 is a reduced-but-faithful configuration; use PaperFig11 for
// the full protocol.
func DefaultFig11() Fig11Config {
	return Fig11Config{PerClass: 12, Folds: 5,
		TrainSizes: []int{1, 2, 4, 6, 8, 10}, Seed: 1, MaxEpochs: 40}
}

// PaperFig11 is the paper's full protocol (slow).
func PaperFig11() Fig11Config {
	return Fig11Config{PerClass: 20, Folds: 10,
		TrainSizes: []int{1, 2, 4, 6, 8, 11, 14, 16}, Seed: 1, MaxEpochs: 100}
}

// Fig11Row is one x-axis point of the cross-validation curves.
type Fig11Row struct {
	TrainPerClass int
	Top1Mean      float64
	Top1Std       float64
	Top3Mean      float64
	Top3Std       float64
	FFTRecallMean float64
	FFTRecallStd  float64
}

// Fig11 trains the classifier across folds and train-set sizes.
func Fig11(w io.Writer, cfg Fig11Config) ([]Fig11Row, error) {
	fmt.Fprintf(w, "Figure 11: classifier cross-validation (%d folds, %d per class)\n",
		cfg.Folds, cfg.PerClass)
	fmt.Fprintf(w, "%-8s %-16s %-16s %-16s\n", "train/cls", "top-1 acc", "top-3 acc", "FFT top-3 recall")
	ds, err := ojclone.Build(cfg.PerClass, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var rows []Fig11Row
	for _, ts := range cfg.TrainSizes {
		folds := ds.KFolds(cfg.Folds, ts, cfg.Seed+int64(ts))
		var t1, t3, rec []float64
		for fi, f := range folds {
			model := gnn.Fit(f.Train, ds.NumClasses(), gnn.TrainConfig{
				MaxEpochs: cfg.MaxEpochs, Seed: cfg.Seed + int64(fi*100+ts),
			})
			t1 = append(t1, gnn.Accuracy(model, f.Test))
			t3 = append(t3, gnn.TopKAccuracy(model, f.Test, 3))
			rec = append(rec, gnn.RecallForClass(model, f.Test, ds.FFTClass, 3))
		}
		row := Fig11Row{
			TrainPerClass: ts,
			Top1Mean:      mean(t1), Top1Std: std(t1),
			Top3Mean: mean(t3), Top3Std: std(t3),
			FFTRecallMean: mean(rec), FFTRecallStd: std(rec),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-8d %.2f±%.2f        %.2f±%.2f        %.2f±%.2f\n",
			ts, row.Top1Mean, row.Top1Std, row.Top3Mean, row.Top3Std,
			row.FFTRecallMean, row.FFTRecallStd)
	}
	return rows, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func std(xs []float64) float64 {
	m := mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	if len(xs) < 2 {
		return 0
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Fig12 prints prefix-match decay for the IDL pattern.
func Fig12(w io.Writer) error {
	fmt.Fprintf(w, "Figure 12: IDL pattern-prefix matches vs pattern length\n")
	suite := bench.Suite()
	b0 := suite[0]
	f0, err := minic.ParseAndCheck(b0.File, b0.Source())
	if err != nil {
		return err
	}
	pattern := idl.Extract(f0, f0.Func(b0.Entry))
	var all []idl.Pattern
	for _, b := range suite {
		f, err := minic.ParseAndCheck(b.File, b.Source())
		if err != nil {
			return err
		}
		all = append(all, idl.Extract(f, f.Func(b.Entry)))
	}
	fmt.Fprintf(w, "%-8s %s\n", "length", "programs matching prefix")
	for _, l := range []int{1, 2, 3, 5, 8, 12, 20, 30, 50, 100, len(pattern)} {
		if l > len(pattern) {
			continue
		}
		count := 0
		for _, p := range all {
			if idl.MatchPrefix(pattern[:l], p) == l {
				count++
			}
		}
		fmt.Fprintf(w, "%-8d %d\n", l, count)
	}
	return nil
}

// Fig13 prints per-benchmark speedups on all three targets.
func Fig13(w io.Writer, prof *Profiler) error {
	fmt.Fprintf(w, "Figure 13: relative performance per target (vs each target's host CPU)\n")
	fmt.Fprintf(w, "%-3s %-12s %6s %12s %12s %12s\n", "ID", "Name", "N",
		"FFTA(x)", "PowerQuad(x)", "FFTW(x)")
	specs := accel.Specs()
	series := map[string][]float64{}
	for _, b := range bench.SupportedSuite() {
		n := b.PerfSize
		m, err := prof.Measure(b, n)
		if err != nil {
			return err
		}
		row := []string{}
		for _, spec := range specs {
			if !spec.Supports(n) {
				row = append(row, "-")
				continue
			}
			s := Speedup(m, spec)
			series[spec.Name] = append(series[spec.Name], s)
			row = append(row, fmt.Sprintf("%.1f", s))
		}
		fmt.Fprintf(w, "%-3d %-12s %6d %12s %12s %12s\n", b.ID, b.Name, n,
			row[0], row[1], row[2])
	}
	fmt.Fprintf(w, "geomean %24.1f %12.1f %12.1f   (paper: 27x, 17x, 9x)\n",
		GeoMean(series["ffta"]), GeoMean(series["powerquad"]), GeoMean(series["fftw"]))
	return nil
}

// Fig14 sweeps input sizes for benchmarks 1-7.
func Fig14(w io.Writer, prof *Profiler) error {
	fmt.Fprintf(w, "Figure 14: speedup vs input size, benchmarks 1-7 (geomean per size)\n")
	fmt.Fprintf(w, "%-6s %12s %12s %12s\n", "N", "FFTA(x)", "PowerQuad(x)", "FFTW(x)")
	specs := accel.Specs()
	for _, n := range []int{16, 32, 64, 128, 256, 512, 1024} {
		cells := []string{}
		for _, spec := range specs {
			var xs []float64
			for _, b := range bench.SupportedSuite() {
				if b.ID < 1 || b.ID > 7 {
					continue
				}
				if !Supports(b, n) || !spec.Supports(n) {
					continue
				}
				m, err := prof.Measure(b, n)
				if err != nil {
					return err
				}
				xs = append(xs, Speedup(m, spec))
			}
			if len(xs) == 0 {
				cells = append(cells, "-")
			} else {
				cells = append(cells, fmt.Sprintf("%.2f", GeoMean(xs)))
			}
		}
		fmt.Fprintf(w, "%-6d %12s %12s %12s\n", n, cells[0], cells[1], cells[2])
	}
	return nil
}

// Fig15 prints the CDF of compilation times per target from compiles
// that each paid for their own reference runs (CompileAllPrivate), then,
// on one labelled line, the same quantiles of the shared-cache compiles
// the other figures use, where later targets replay the first one's
// reference runs.
func Fig15(w io.Writer, private, shared []*CompileOutcome) {
	fmt.Fprintf(w, "Figure 15: CDF of FACC compile time per benchmark (one distribution per target, each compile with its own oracle cache)\n")
	targets := []string{"ffta", "powerquad", "fftw"}
	for _, target := range targets {
		fmt.Fprintf(w, "%-10s%s\n", target, timeQuantiles(private, target))
	}
	fmt.Fprintf(w, "shared oracle cache per program, as Figs. 8, 9 and 16 compile:")
	for _, target := range targets {
		fmt.Fprintf(w, "  %s%s", target, timeQuantiles(shared, target))
	}
	fmt.Fprintf(w, "\n")
}

// timeQuantiles renders the p20..p100 compile times of one target.
func timeQuantiles(outcomes []*CompileOutcome, target string) string {
	var times []float64
	for _, oc := range outcomes {
		if oc.Target == target {
			times = append(times, oc.Elapsed.Seconds())
		}
	}
	if len(times) == 0 {
		return ""
	}
	sort.Float64s(times)
	var b strings.Builder
	for _, q := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		idx := max(int(q*float64(len(times)))-1, 0)
		fmt.Fprintf(&b, "  p%.0f=%.3fs", q*100, times[idx])
	}
	return b.String()
}

// Fig16 prints the CDF of binding-candidate counts per target.
func Fig16(w io.Writer, outcomes []*CompileOutcome) {
	fmt.Fprintf(w, "Figure 16: CDF of binding candidates per benchmark (one distribution per target)\n")
	byTarget := map[string][]int{}
	for _, oc := range outcomes {
		byTarget[oc.Target] = append(byTarget[oc.Target], oc.Candidates)
	}
	for _, target := range []string{"ffta", "powerquad", "fftw"} {
		counts := byTarget[target]
		sort.Ints(counts)
		fmt.Fprintf(w, "%-10s", target)
		for _, q := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
			idx := int(q*float64(len(counts))) - 1
			if idx < 0 {
				idx = 0
			}
			fmt.Fprintf(w, "  p%.0f=%d", q*100, counts[idx])
		}
		fmt.Fprintf(w, "\n")
	}
}

// Ablation prints the DESIGN.md ablation results: binding-search size with
// and without heuristics, and fuzzing's candidate elimination as the IO
// budget grows.
func Ablation(w io.Writer) error {
	fmt.Fprintf(w, "Ablations (DESIGN.md key design decisions)\n")
	b, err := bench.ByName("bigmixed")
	if err != nil {
		return err
	}
	f, err := minic.ParseAndCheck(b.File, b.Source())
	if err != nil {
		return err
	}
	fn := f.Func(b.Entry)
	profile := core.BuildProfile(b.ProfileValues)
	fi := analysis.AnalyzeFunc(f, fn)

	fmt.Fprintf(w, "%-12s %-28s %s\n", "target", "with heuristics", "without (range+single-read off)")
	for _, spec := range accel.Specs() {
		with := len(binding.Enumerate(fi, spec, profile, binding.Options{}))
		without := len(binding.Enumerate(fi, spec, profile, binding.Options{
			DisableRangeHeuristic: true, DisableSingleRead: true}))
		fmt.Fprintf(w, "%-12s %-28d %d\n", spec.Name, with, without)
	}

	fmt.Fprintf(w, "\nIO-test budget vs surviving candidates (%s on powerquad):\n", b.Name)
	for _, tests := range []int{1, 2, 4, 10} {
		res, err := synth.Synthesize(context.Background(), f, fn, accel.NewPowerQuad(), profile,
			synth.Options{NumTests: tests, ExhaustAll: true})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %2d tests: %d survivors of %d candidates\n",
			tests, res.Survivors, res.Candidates)
	}
	return nil
}
