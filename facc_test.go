package facc

import (
	"strings"
	"sync"
	"testing"
	"time"

	"facc/internal/accel"
	"facc/internal/bench"
	"facc/internal/core"
	"facc/internal/minic"
	"facc/internal/synth"
)

const quickstartSrc = `
#include <math.h>
typedef struct { double re; double im; } cpx;
void fft(cpx* x, int n) {
    int j = 0;
    for (int i = 1; i < n; i++) {
        int bit = n >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j |= bit;
        if (i < j) {
            cpx tmp = x[i];
            x[i] = x[j];
            x[j] = tmp;
        }
    }
    for (int len = 2; len <= n; len <<= 1) {
        double ang = -2.0 * M_PI / (double)len;
        for (int i = 0; i < n; i += len) {
            for (int k = 0; k < len / 2; k++) {
                double wre = cos(ang * (double)k);
                double wim = sin(ang * (double)k);
                cpx u = x[i + k];
                cpx v;
                v.re = x[i + k + len / 2].re * wre - x[i + k + len / 2].im * wim;
                v.im = x[i + k + len / 2].re * wim + x[i + k + len / 2].im * wre;
                x[i + k].re = u.re + v.re;
                x[i + k].im = u.im + v.im;
                x[i + k + len / 2].re = u.re - v.re;
                x[i + k + len / 2].im = u.im - v.im;
            }
        }
    }
}`

func TestCompileQuickstart(t *testing.T) {
	res, err := Compile("fft.c", quickstartSrc, TargetFFTA, Options{
		ProfileValues: map[string][]int64{"n": {64, 128, 256}},
		NumTests:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("compile failed: %s", res.FailReason())
	}
	if res.Function() != "fft" {
		t.Errorf("replaced %q", res.Function())
	}
	src := res.AdapterC()
	for _, w := range []string{"fft_accel", "accel_cfft", "is_power_of_two"} {
		if !strings.Contains(src, w) {
			t.Errorf("adapter missing %q", w)
		}
	}
	if !strings.Contains(res.String(), "replaced fft") {
		t.Errorf("summary = %q", res.String())
	}
}

func TestCompileUnknownTarget(t *testing.T) {
	if _, err := Compile("x.c", "int f(void){return 0;}", "tpu", Options{}); err == nil {
		t.Error("expected error for unknown target")
	}
}

func TestCompileParseError(t *testing.T) {
	if _, err := Compile("x.c", "int f( {", TargetFFTA, Options{}); err == nil {
		t.Error("expected parse error")
	}
}

func TestTargets(t *testing.T) {
	ts := Targets()
	if len(ts) != 3 {
		t.Fatalf("targets = %v", ts)
	}
}

func TestCorpusAccessors(t *testing.T) {
	if len(Corpus()) != 25 {
		t.Error("corpus size")
	}
	b, err := CorpusBenchmark("dft12")
	if err != nil || b.ID != 17 {
		t.Errorf("CorpusBenchmark: %v %v", b, err)
	}
}

// TestCorpusCompilesToAllTargets is the headline integration test: FACC
// compiles exactly the 18 supported corpus programs on every target and
// classifies the 7 failures into the paper's Fig. 8 categories.
func TestCorpusCompilesToAllTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus compile is slow")
	}
	for _, target := range []string{TargetFFTA, TargetPowerQuad, TargetFFTW} {
		target := target
		t.Run(target, func(t *testing.T) {
			for _, b := range bench.Suite() {
				b := b
				t.Run(b.Name, func(t *testing.T) {
					res, err := Compile(b.File, b.Source(), target, Options{
						Entry:         b.Entry,
						ProfileValues: b.ProfileValues,
						NumTests:      4,
					})
					if err != nil {
						t.Fatalf("pipeline error: %v", err)
					}
					if b.IsSupported() {
						if !res.OK() {
							t.Fatalf("expected success, got failure (%s)", res.FailReason())
						}
						if res.AdapterC() == "" {
							t.Fatal("empty adapter")
						}
						// The emitted adapter must be valid C: append it
						// to the original translation unit and run it
						// back through the frontend.
						combined := b.Source() + "\n" + res.AdapterC()
						if _, err := minic.ParseAndCheck(b.File+"+adapter", combined); err != nil {
							t.Fatalf("emitted adapter does not compile: %v\n%s",
								err, res.AdapterC())
						}
					} else {
						if res.OK() {
							t.Fatalf("expected failure (%s), but compiled", b.Failure)
						}
						if res.FailReason() != string(b.Failure) {
							t.Errorf("failure = %q, want %q", res.FailReason(), b.Failure)
						}
					}
				})
			}
		})
	}
}

// TestSharedCacheCompiles pins what sharing an oracle cache shares and
// what it must not change. Per corpus program, six goroutines compile it
// at once on one cache, two per target, as eval.CompileAll's workers do:
// every compile must get the same *minic.File, that file must print as a
// fresh parse of the source does after all of them, and every adapter
// and fail reason must equal a compile's on a private cache.
func TestSharedCacheCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the corpus three times over; skipped in -short")
	}
	targets := []string{TargetFFTA, TargetPowerQuad, TargetFFTW}
	outcome := func(res *Result) string {
		if res.OK() {
			return res.AdapterC()
		}
		return "failed: " + res.FailReason()
	}
	for _, bm := range bench.Suite() {
		opts := Options{Entry: bm.Entry, ProfileValues: bm.ProfileValues, NumTests: 4}
		want := map[string]string{}
		for _, target := range targets {
			res, err := Compile(bm.File, bm.Source(), target, opts)
			if err != nil {
				t.Fatalf("%s/%s on a private cache: %v", bm.Name, target, err)
			}
			want[target] = outcome(res)
		}
		fresh, err := minic.ParseAndCheck(bm.File, bm.Source())
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		printed := minic.PrintFile(fresh)

		opts.Oracle = NewOracleCache()
		results := make([]*Result, 2*len(targets))
		var wg sync.WaitGroup
		wg.Add(len(results))
		for i := range results {
			go func(i int) {
				defer wg.Done()
				res, err := Compile(bm.File, bm.Source(), targets[i%len(targets)], opts)
				if err != nil {
					t.Errorf("%s/%s on the shared cache: %v", bm.Name, targets[i%len(targets)], err)
					return
				}
				results[i] = res
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		shared := results[0].Raw().File
		for i, res := range results {
			target := targets[i%len(targets)]
			if res.Raw().File != shared {
				t.Errorf("%s/%s: compile %d got its own *minic.File", bm.Name, target, i)
			}
			if got := outcome(res); got != want[target] {
				t.Errorf("%s/%s: shared-cache outcome differs from a private cache's:\n%s\nwant:\n%s",
					bm.Name, target, got, want[target])
			}
		}
		if minic.PrintFile(shared) != printed {
			t.Errorf("%s: the shared file no longer prints as its source parses", bm.Name)
		}
	}
}

// TestClassifierFindsCorpusFFTs: the trained classifier labels corpus FFT
// entry points as FFT candidates.
func TestClassifierFindsCorpusFFTs(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	clf, err := Train(8, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Compile one benchmark relying on the classifier (no Entry pin).
	b, _ := CorpusBenchmark("iterdit")
	res, err := Compile(b.File, b.Source(), TargetFFTA, Options{
		Classifier:    clf,
		ProfileValues: b.ProfileValues,
		NumTests:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("classifier-driven compile failed: %s", res.FailReason())
	}
	if res.Function() != b.Entry {
		t.Errorf("compiled %q, want %q", res.Function(), b.Entry)
	}
}

// TestCandidatesSumsAllFunctions: a translation unit with two candidate
// regions must report the candidates enumerated across BOTH attempted
// functions, not just the winner's (regression: Candidates() used to
// return only the winning/last function's count, under-reporting the
// Fig. 16 metric).
func TestCandidatesSumsAllFunctions(t *testing.T) {
	// scale() binds plausibly (complex array + length) but is not an FFT,
	// so every candidate dies in fuzzing; fft() then compiles. Both are
	// attempted because scale comes first in file order.
	src := `
#include <math.h>
typedef struct { double re; double im; } cpx;
void scale(cpx* x, int n) {
    for (int i = 0; i < n; i++) {
        x[i].re = x[i].re * 2.0;
        x[i].im = x[i].im * 2.0;
    }
}` + strings.TrimPrefix(quickstartSrc, `
#include <math.h>
typedef struct { double re; double im; } cpx;`)
	res, err := Compile("two.c", src, TargetFFTA, Options{
		ProfileValues: map[string][]int64{"n": {64, 128}},
		NumTests:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Function() != "fft" {
		t.Fatalf("expected fft to compile; got ok=%v fn=%q (%s)",
			res.OK(), res.Function(), res.FailReason())
	}
	fns := res.Raw().Functions
	if len(fns) != 2 {
		t.Fatalf("attempted %d functions, want 2", len(fns))
	}
	sum := 0
	winner := 0
	for _, fr := range fns {
		sum += fr.Result.Candidates
		if fr.AdapterC != "" {
			winner = fr.Result.Candidates
		}
	}
	if fns[0].Result.Candidates == 0 {
		t.Fatal("scale enumerated no candidates; test premise broken")
	}
	if got := res.Candidates(); got != sum {
		t.Errorf("Candidates() = %d, want sum %d", got, sum)
	}
	if res.Candidates() <= winner {
		t.Errorf("Candidates() = %d does not exceed winner's %d; rejected region not counted",
			res.Candidates(), winner)
	}
}

// TestReportGolden pins the exact report layout, including the
// microsecond-resolution time column (sub-millisecond stages used to
// print an unhelpful time=0s).
func TestReportGolden(t *testing.T) {
	res := &Result{c: &core.Compilation{
		Target: accel.NewFFTA(),
		Functions: []*core.FunctionResult{
			{
				Function: "slow_path",
				Result: &synth.Result{Candidates: 7, Tested: 7,
					FailReason: "interface-incompatibility"},
				Elapsed: 843 * time.Microsecond,
			},
			{
				Function: "fft",
				Result:   &synth.Result{Candidates: 12, Tested: 9},
				Elapsed:  2500 * time.Millisecond,
			},
		},
	}}
	want := "target: ffta (powers of two in [64, 65536])\n" +
		"slow_path            rejected  candidates=7 tested=7 survivors=0 time=0.84ms reason=interface-incompatibility\n" +
		"fft                  rejected  candidates=12 tested=9 survivors=0 time=2.50s\n"
	if got := res.Report(); got != want {
		t.Errorf("report layout drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestFmtDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0.00ms"},
		{42 * time.Microsecond, "0.04ms"},
		{843 * time.Microsecond, "0.84ms"},
		{time.Millisecond, "1.00ms"},
		{999500 * time.Microsecond, "999.50ms"},
		{time.Second, "1.00s"},
		{2500 * time.Millisecond, "2.50s"},
	}
	for _, c := range cases {
		if got := fmtDuration(c.d); got != c.want {
			t.Errorf("fmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// TestTracedCompile: a caller-supplied tracer captures the full pipeline
// hierarchy and the per-candidate fuzz spans carry test counts.
func TestTracedCompile(t *testing.T) {
	tr := NewTracer()
	res, err := Compile("fft.c", quickstartSrc, TargetFFTA, Options{
		ProfileValues: map[string][]int64{"n": {64, 128, 256}},
		NumTests:      4,
		Trace:         tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("compile failed: %s", res.FailReason())
	}
	for _, stage := range []string{"parse", "typecheck", "classify", "analyze",
		"binding", "fuzz", "rangecheck", "codegen", "synthesize", "compile"} {
		if len(tr.Find(stage)) == 0 {
			t.Errorf("no %q span recorded", stage)
		}
	}
	for _, fuzz := range tr.Find("fuzz") {
		if fuzz.Attr("tests") == nil || fuzz.Attr("binding") == nil {
			t.Errorf("fuzz span missing tests/binding attributes: %v", fuzz.Attrs)
		}
	}
	if got := tr.Metrics().Counters()["synth.winners"]; got != 1 {
		t.Errorf("synth.winners = %d, want 1", got)
	}
	if tr.Metrics().Counters()["accel.runs.ffta"] == 0 {
		t.Error("accelerator run counter not incremented")
	}
	// The compilation's Elapsed must be the compile span's duration — one
	// code path for experiments and observability.
	if root := tr.Find("compile"); len(root) != 1 || root[0].Dur != res.Raw().Elapsed {
		t.Errorf("Elapsed %v != compile span durations %v", res.Raw().Elapsed, root)
	}
}

func TestReport(t *testing.T) {
	res, err := Compile("fft.c", quickstartSrc, TargetFFTA, Options{
		ProfileValues: map[string][]int64{"n": {64, 128, 256}},
		NumTests:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	for _, w := range []string{"target: ffta", "replaced", "candidates=", "binding:", "post: denormalize(*N)"} {
		if !strings.Contains(rep, w) {
			t.Errorf("report missing %q:\n%s", w, rep)
		}
	}
}

// TestCompileRequestDigestGolden pins CompileRequest.Digest: every stored
// adapter is keyed by it, so a change to its value turns every existing
// store into misses. One request sets only source and target; the second
// sets every field the digest reads, profile, test count and tolerance
// included; the third has a source and a profile name longer than the
// digest's 512-byte scratch buffer. Name is not one of them.
func TestCompileRequestDigestGolden(t *testing.T) {
	src := "void fft(double *x, int n) {}\n"
	long := strings.Repeat("void fft(double *x, int n) { x[0] = n; }\n", 33)
	for _, tc := range []struct {
		req  CompileRequest
		want string
	}{
		{CompileRequest{Name: "a.c", Source: src, Target: "ffta"},
			"13d883b59eae4771b57f6b433a71fc937afa52d2b6e6d1b5ae245003de1717d4"},
		{CompileRequest{Name: "b.c", Source: src, Target: "fftw", Entry: "fft",
			ProfileValues: map[string][]int64{"n": {64, 128}, "m": {3}}, NumTests: 7, Tolerance: 1e-4},
			"6d45da7956a634d20dfccf2f21c0cc67a0c3f14c19dd121988bfcbb2dd343cee"},
		{CompileRequest{Name: "c.c", Source: long, Target: "powerquad",
			ProfileValues: map[string][]int64{strings.Repeat("k", 600): {1, -2}}, Tolerance: 2e-3 * (1 + 7e-9)},
			"513b63dba036beb14e2bd88a2822b78c4bdf2daa4e18f96ee6f2f13d4c9ab86a"},
	} {
		if got := tc.req.Digest(); got != tc.want {
			t.Errorf("Digest(%+v) = %s, want %s", tc.req, got, tc.want)
		}
		renamed := tc.req
		renamed.Name = "other.c"
		if got := renamed.Digest(); got != tc.want {
			t.Errorf("Digest depends on Name: %s under %q, want %s", got, renamed.Name, tc.want)
		}
	}
}
