package core

import (
	"context"
	"strings"
	"testing"

	"facc/internal/accel"
	"facc/internal/minic"
	"facc/internal/obs"
	"facc/internal/synth"
)

const dftSrc = `
#include <math.h>
typedef struct { double re; double im; } cpx;
void spectrum(cpx* x, int n) {
    cpx out[n];
    for (int k = 0; k < n; k++) {
        double sre = 0.0;
        double sim = 0.0;
        for (int j = 0; j < n; j++) {
            double a = -2.0 * M_PI * (double)j * (double)k / (double)n;
            sre += x[j].re * cos(a) - x[j].im * sin(a);
            sim += x[j].re * sin(a) + x[j].im * cos(a);
        }
        out[k].re = sre;
        out[k].im = sim;
    }
    for (int k = 0; k < n; k++) x[k] = out[k];
}
void helper_scale(double* v, int n, double f) {
    for (int i = 0; i < n; i++) v[i] = v[i] * f;
}`

func TestCompileSourcePinnedEntry(t *testing.T) {
	comp, err := CompileSource(context.Background(), "t.c", dftSrc, accel.NewPowerQuad(), Options{
		Entry:         "spectrum",
		ProfileValues: map[string][]int64{"n": {16, 32, 64}},
		Synth:         synth.Options{NumTests: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := comp.Success()
	if s == nil {
		t.Fatalf("no success: %s", comp.FailReason())
	}
	if s.Function != "spectrum" {
		t.Errorf("function = %q", s.Function)
	}
	if !strings.Contains(s.AdapterC, "pq_cfft") {
		t.Error("adapter missing accelerator call")
	}
	if s.Elapsed <= 0 || comp.Elapsed < s.Elapsed {
		t.Error("timing bookkeeping wrong")
	}
}

func TestCompileAllFunctionsWithoutClassifier(t *testing.T) {
	// No Entry, no classifier: every function considered; generate-and-
	// test rejects helper_scale and accepts spectrum.
	comp, err := CompileSource(context.Background(), "t.c", dftSrc, accel.NewPowerQuad(), Options{
		ProfileValues: map[string][]int64{"n": {16, 32}},
		Synth:         synth.Options{NumTests: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := comp.Success()
	if s == nil || s.Function != "spectrum" {
		t.Fatalf("success = %+v", s)
	}
}

func TestCompileUnknownEntry(t *testing.T) {
	_, err := CompileSource(context.Background(), "t.c", dftSrc, accel.NewFFTA(), Options{Entry: "nope"})
	if err == nil || !strings.Contains(err.Error(), "no function") {
		t.Errorf("err = %v", err)
	}
}

func TestFailReasonPriority(t *testing.T) {
	src := `
typedef struct { double re; double im; } cpx;
void log_stuff(cpx* x, int n) {
    for (int i = 0; i < n; i++) printf("%f\n", x[i].re);
}
double plain(double* v, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s += v[i];
    return s;
}`
	comp, err := CompileSource(context.Background(), "t.c", src, accel.NewFFTA(), Options{
		Synth: synth.Options{NumTests: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Success() != nil {
		t.Fatal("nothing should compile")
	}
	if got := comp.FailReason(); got != "printf" {
		t.Errorf("fail reason = %q, want printf (specific beats generic)", got)
	}
}

func TestBuildProfile(t *testing.T) {
	if BuildProfile(nil) != nil {
		t.Error("nil table should produce nil profile")
	}
	p := BuildProfile(map[string][]int64{"n": {64, 128}})
	r := p.Range("n")
	if r == nil || r.Min != 64 || r.Max != 128 || !r.AllPowersOfTwo {
		t.Errorf("profile range = %v", r)
	}
}

func TestClassifierCandidateOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	clf, err := TrainClassifier(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := minic.ParseAndCheck("t.c", dftSrc)
	if err != nil {
		t.Fatal(err)
	}
	cands := clf.CandidateFunctions(f)
	found := false
	for _, c := range cands {
		if c == "spectrum" {
			found = true
		}
	}
	if !found {
		t.Errorf("classifier missed the DFT: candidates = %v", cands)
	}
}

func TestNoCandidateRegion(t *testing.T) {
	comp, err := CompileSource(context.Background(), "t.c", "int unused;", accel.NewFFTA(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if comp.FailReason() != "no-candidate-region" {
		t.Errorf("fail reason = %q", comp.FailReason())
	}
}

func TestAllRegionsCompilesEveryFFT(t *testing.T) {
	src := `
#include <math.h>
typedef struct { double re; double im; } cpx;
void fwd_a(cpx* x, int n) {
    cpx out[n];
    for (int k = 0; k < n; k++) {
        double sre = 0.0;
        double sim = 0.0;
        for (int j = 0; j < n; j++) {
            double a = -2.0 * M_PI * (double)j * (double)k / (double)n;
            sre += x[j].re * cos(a) - x[j].im * sin(a);
            sim += x[j].re * sin(a) + x[j].im * cos(a);
        }
        out[k].re = sre;
        out[k].im = sim;
    }
    for (int k = 0; k < n; k++) x[k] = out[k];
}
void fwd_b(cpx* in, cpx* out, int n) {
    for (int k = 0; k < n; k++) {
        double sre = 0.0;
        double sim = 0.0;
        for (int j = 0; j < n; j++) {
            double a = -2.0 * M_PI * (double)j * (double)k / (double)n;
            sre += in[j].re * cos(a) - in[j].im * sin(a);
            sim += in[j].re * sin(a) + in[j].im * cos(a);
        }
        out[k].re = sre;
        out[k].im = sim;
    }
}`
	comp, err := CompileSource(context.Background(), "t.c", src, accel.NewPowerQuad(), Options{
		ProfileValues: map[string][]int64{"n": {16, 32}},
		Synth:         synth.Options{NumTests: 4},
		AllRegions:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	succ := comp.Successes()
	if len(succ) != 2 {
		names := []string{}
		for _, s := range succ {
			names = append(names, s.Function)
		}
		t.Fatalf("compiled %d regions (%v), want both fwd_a and fwd_b", len(succ), names)
	}
}

func TestIntegratedUnitRewritesCallSites(t *testing.T) {
	src := `
#include <math.h>
typedef struct { double re; double im; } cpx;
void fft(cpx* x, int n) {
    cpx out[n];
    for (int k = 0; k < n; k++) {
        double sre = 0.0;
        double sim = 0.0;
        for (int j = 0; j < n; j++) {
            double a = -2.0 * M_PI * (double)j * (double)k / (double)n;
            sre += x[j].re * cos(a) - x[j].im * sin(a);
            sim += x[j].re * sin(a) + x[j].im * cos(a);
        }
        out[k].re = sre;
        out[k].im = sim;
    }
    for (int k = 0; k < n; k++) x[k] = out[k];
}
void process_block(cpx* buf, int n) {
    fft(buf, n);
    for (int i = 0; i < n; i++) {
        buf[i].re = buf[i].re * 0.5;
        buf[i].im = buf[i].im * 0.5;
    }
}`
	comp, err := CompileSource(context.Background(), "app.c", src, accel.NewPowerQuad(), Options{
		Entry:         "fft",
		ProfileValues: map[string][]int64{"n": {16, 32}},
		Synth:         synth.Options{NumTests: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Success() == nil {
		t.Fatalf("compile failed: %s", comp.FailReason())
	}
	unit, err := comp.IntegratedUnit()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(unit, "fft_accel(buf, n);") {
		t.Errorf("call site not rewritten:\n%s", unit)
	}
	// The original function must remain (the fallback path needs it)...
	if !strings.Contains(unit, "void fft(cpx *x, int n)") {
		t.Error("original function lost")
	}
	// ...and the adapter must never call itself via the rewritten name.
	if strings.Contains(unit, "fft_accel(x, n);\n    }\n}") &&
		!strings.Contains(unit, "fft(x, n);") {
		t.Error("fallback path was rewritten too")
	}
}

func TestIntegratedUnitFailsWithNothingCompiled(t *testing.T) {
	comp, err := CompileSource(context.Background(), "t.c", "int x;", accel.NewFFTA(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comp.IntegratedUnit(); err == nil {
		t.Error("expected error for empty compilation")
	}
}

// TestCompileSourceFrontendOncePerCache: compiles sharing an oracle cache
// parse and check a source once. The first compile records parse and
// typecheck spans under its frontend span; the second records neither,
// marks its frontend span cached, and gets the same file. A parse error
// is kept the same way.
func TestCompileSourceFrontendOncePerCache(t *testing.T) {
	tr := obs.New()
	opts := Options{Entry: "spectrum", Trace: tr,
		ProfileValues: map[string][]int64{"n": {16, 32}},
		Synth:         synth.Options{NumTests: 3, Oracle: synth.NewOracleCache()}}
	var files []*minic.File
	for _, spec := range []*accel.Spec{accel.NewPowerQuad(), accel.NewFFTWLib()} {
		comp, err := CompileSource(context.Background(), "t.c", dftSrc, spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, comp.File)
	}
	if files[0] != files[1] {
		t.Error("the second compile on the cache got its own *minic.File")
	}
	front := tr.Find("frontend")
	if len(front) != 2 || len(tr.Find("parse")) != 1 || len(tr.Find("typecheck")) != 1 {
		t.Fatalf("%d frontend, %d parse, %d typecheck spans; want 2, 1, 1",
			len(front), len(tr.Find("parse")), len(tr.Find("typecheck")))
	}
	if front[0].Attr("cached") != nil || front[1].Attr("cached") != "true" {
		t.Errorf("cached attributes %v, %v; want none, then true",
			front[0].Attr("cached"), front[1].Attr("cached"))
	}

	bad := "void f( {"
	var errs []error
	for i := 0; i < 2; i++ {
		_, err := CompileSource(context.Background(), "bad.c", bad, accel.NewFFTA(), opts)
		if err == nil {
			t.Fatal("a parse error compiled")
		}
		errs = append(errs, err)
	}
	if errs[0] != errs[1] || len(tr.Find("parse")) != 2 {
		t.Errorf("the parse error was not kept: %v, %v, %d parse spans", errs[0], errs[1], len(tr.Find("parse")))
	}
}
