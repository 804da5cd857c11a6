package synth

import (
	"context"
	"math"
	"testing"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/behave"
	"facc/internal/minic"
)

// radix2Struct is an in-place, un-normalized radix-2 FFT over {re,im}
// structs — the most common GitHub shape.
const radix2Struct = `
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

func synthOne(t *testing.T, src, fn string, spec *accel.Spec, prof *analysis.Profile) *Result {
	t.Helper()
	f, err := minic.ParseAndCheck("t.c", src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	fd := f.Func(fn)
	if fd == nil {
		t.Fatalf("no function %q", fn)
	}
	res, err := Synthesize(context.Background(), f, fd, spec, prof, Options{NumTests: 6})
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	return res
}

func pow2Profile(name string, vals ...int64) *analysis.Profile {
	p := analysis.NewProfile()
	if len(vals) == 0 {
		vals = []int64{64, 128, 256}
	}
	for _, v := range vals {
		p.ObserveInt(name, v)
	}
	return p
}

func TestSynthesizeRadix2ToFFTA(t *testing.T) {
	res := synthOne(t, radix2Struct, "fft", accel.NewFFTA(), pow2Profile("n"))
	if res.Adapter == nil {
		t.Fatalf("no adapter found: %s", res.FailReason)
	}
	ad := res.Adapter
	if ad.Cand.Input.Param != "x" || !ad.Cand.InPlace {
		t.Errorf("binding = %s", ad.Cand)
	}
	if ad.Cand.Input.ReOff != 0 || ad.Cand.Input.ImOff != 1 {
		t.Errorf("field order wrong: re@%d im@%d", ad.Cand.Input.ReOff, ad.Cand.Input.ImOff)
	}
	if ad.Cand.Length.Param != "n" {
		t.Errorf("length binding = %+v", ad.Cand.Length)
	}
	// FFTA normalizes; the user code does not → denormalize post-op.
	if ad.Post.Scale != behave.ScaleByN || ad.Post.BitReverse {
		t.Errorf("post op = %s, want denormalize", ad.Post)
	}
	if ad.Check == nil {
		t.Fatal("no range check")
	}
	// The profile covers 64..256 (all pow2, inside FFTA domain): the
	// minimal check needs nothing extra.
	if !ad.Check.AlwaysTrue() {
		t.Errorf("check should be minimal, got %q", ad.Check.CCondition("n"))
	}
}

func TestSynthesizeRadix2ToPowerQuad(t *testing.T) {
	res := synthOne(t, radix2Struct, "fft", accel.NewPowerQuad(), pow2Profile("n"))
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	// PowerQuad is un-normalized like the user code → identity post-op.
	if !res.Adapter.Post.IsIdentity() {
		t.Errorf("post op = %s, want identity", res.Adapter.Post)
	}
}

func TestSynthesizeC99DFTToFFTW(t *testing.T) {
	src := `
#include <complex.h>
#include <math.h>
void dft(double complex* in, double complex* out, int n) {
    for (int k = 0; k < n; k++) {
        double complex sum = 0;
        for (int j = 0; j < n; j++) {
            double angle = -2.0 * M_PI * (double)j * (double)k / (double)n;
            sum += in[j] * cexp(angle * I);
        }
        out[k] = sum;
    }
}`
	res := synthOne(t, src, "dft", accel.NewFFTWLib(), pow2Profile("n", 16, 32, 64))
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	ad := res.Adapter
	if ad.Cand.Input.Param != "in" || ad.Cand.Output.Param != "out" || ad.Cand.InPlace {
		t.Errorf("binding = %s", ad.Cand)
	}
	if ad.Cand.Direction == nil || ad.Cand.Direction.Param != "" ||
		ad.Cand.Direction.Constant != accel.FFTWForward {
		t.Errorf("direction = %+v, want specialized forward", ad.Cand.Direction)
	}
	if !ad.Post.IsIdentity() {
		t.Errorf("post = %s", ad.Post)
	}
}

func TestSynthesizeSwappedFieldNames(t *testing.T) {
	// The struct declares im first; the name heuristic must still find
	// the right offsets via testing.
	src := `
#include <math.h>
typedef struct { double im; double re; } cpx;
void dft(cpx* in, cpx* out, int n) {
    for (int k = 0; k < n; k++) {
        double sre = 0.0;
        double sim = 0.0;
        for (int j = 0; j < n; j++) {
            double angle = -2.0 * M_PI * (double)j * (double)k / (double)n;
            double c = cos(angle);
            double s = sin(angle);
            sre += in[j].re * c - in[j].im * s;
            sim += in[j].re * s + in[j].im * c;
        }
        out[k].re = sre;
        out[k].im = sim;
    }
}`
	res := synthOne(t, src, "dft", accel.NewPowerQuad(), pow2Profile("n", 16, 32))
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	b := res.Adapter.Cand.Input
	if b.ReOff != 1 || b.ImOff != 0 {
		t.Errorf("field offsets: re@%d im@%d, want re@1 im@0", b.ReOff, b.ImOff)
	}
}

func TestSynthesizeNormalizedUserCode(t *testing.T) {
	// User DFT divides by n. FFTA also normalizes → identity post-op;
	// PowerQuad does not → normalize post-op.
	src := `
#include <math.h>
typedef struct { double re; double im; } cpx;
void ndft(cpx* x, int n) {
    cpx out[n];
    for (int k = 0; k < n; k++) {
        double sre = 0.0;
        double sim = 0.0;
        for (int j = 0; j < n; j++) {
            double angle = -2.0 * M_PI * (double)j * (double)k / (double)n;
            sre += x[j].re * cos(angle) - x[j].im * sin(angle);
            sim += x[j].re * sin(angle) + x[j].im * cos(angle);
        }
        out[k].re = sre / (double)n;
        out[k].im = sim / (double)n;
    }
    for (int k = 0; k < n; k++) x[k] = out[k];
}`
	resFFTA := synthOne(t, src, "ndft", accel.NewFFTA(), pow2Profile("n", 64, 128))
	if resFFTA.Adapter == nil {
		t.Fatalf("FFTA: no adapter: %s", resFFTA.FailReason)
	}
	if !resFFTA.Adapter.Post.IsIdentity() {
		t.Errorf("FFTA post = %s, want identity", resFFTA.Adapter.Post)
	}
	resPQ := synthOne(t, src, "ndft", accel.NewPowerQuad(), pow2Profile("n", 16, 32))
	if resPQ.Adapter == nil {
		t.Fatalf("PQ: no adapter: %s", resPQ.FailReason)
	}
	if resPQ.Adapter.Post.Scale != behave.ScaleBy1N {
		t.Errorf("PQ post = %s, want normalize", resPQ.Adapter.Post)
	}
}

func TestSynthesizeBitReversedOutput(t *testing.T) {
	// A DIF FFT that leaves its output in bit-reversed order: the
	// adapter must add a bit-reverse post-op.
	src := `
#include <math.h>
typedef struct { double re; double im; } cpx;
void fft_dif(cpx* x, int n) {
    for (int len = n; len >= 2; len >>= 1) {
        double ang = -2.0 * M_PI / (double)len;
        for (int i = 0; i < n; i += len) {
            for (int k = 0; k < len / 2; k++) {
                double wre = cos(ang * (double)k);
                double wim = sin(ang * (double)k);
                cpx a = x[i + k];
                cpx b = x[i + k + len / 2];
                x[i + k].re = a.re + b.re;
                x[i + k].im = a.im + b.im;
                double dre = a.re - b.re;
                double dim = a.im - b.im;
                x[i + k + len / 2].re = dre * wre - dim * wim;
                x[i + k + len / 2].im = dre * wim + dim * wre;
            }
        }
    }
}`
	res := synthOne(t, src, "fft_dif", accel.NewPowerQuad(), pow2Profile("n", 16, 32, 64))
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	if !res.Adapter.Post.BitReverse {
		t.Errorf("post = %s, want bit-reverse", res.Adapter.Post)
	}
}

func TestSynthesizeDirectionFlagPinnedOnHardware(t *testing.T) {
	// User code takes an inverse flag. The FFTA has no inverse mode, so
	// the adapter must pin the flag to 0 in its range check.
	src := dirFlagSrc
	prof := pow2Profile("n", 64, 128)
	prof.ObserveInt("inverse", 0)
	prof.ObserveInt("inverse", 1)
	res := synthOne(t, src, "fft_dir", accel.NewFFTA(), prof)
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	pins := res.Adapter.Cand.Pins
	if len(pins) != 1 || pins[0].Param != "inverse" || pins[0].Value != 0 {
		t.Errorf("pins = %v, want inverse pinned to 0", pins)
	}
	if res.Adapter.Check.Pass(64, map[string]int64{"inverse": 1}) {
		t.Error("range check must reject inverse=1")
	}
	if !res.Adapter.Check.Pass(64, map[string]int64{"inverse": 0}) {
		t.Error("range check must accept inverse=0")
	}
}

func TestSynthesizeDirectionFlagMappedOnFFTW(t *testing.T) {
	src := dirFlagSrc
	prof := pow2Profile("n", 16, 32, 64)
	prof.ObserveInt("inverse", 0)
	prof.ObserveInt("inverse", 1)
	res := synthOne(t, src, "fft_dir", accel.NewFFTWLib(), prof)
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	d := res.Adapter.Cand.Direction
	if d == nil {
		t.Fatal("no direction source")
	}
	if d.Param != "inverse" {
		// A pinned constant is acceptable only if it covers both flag
		// values — it cannot, so the mapped binding must win.
		t.Fatalf("direction = %+v, want mapping from inverse", d)
	}
	if d.Map[0] != accel.FFTWForward || d.Map[1] != accel.FFTWBackward {
		t.Errorf("direction map = %v", d.Map)
	}
}

// dirFlagSrc computes a forward DFT when inverse==0 and an inverse
// (un-normalized) DFT when inverse==1.
const dirFlagSrc = `
#include <math.h>
typedef struct { double re; double im; } cpx;
void fft_dir(cpx* x, int n, int inverse) {
    double sign = -1.0;
    if (inverse) sign = 1.0;
    cpx out[n];
    for (int k = 0; k < n; k++) {
        double sre = 0.0;
        double sim = 0.0;
        for (int j = 0; j < n; j++) {
            double angle = sign * 2.0 * M_PI * (double)j * (double)k / (double)n;
            sre += x[j].re * cos(angle) - x[j].im * sin(angle);
            sim += x[j].re * sin(angle) + x[j].im * cos(angle);
        }
        out[k].re = sre;
        out[k].im = sim;
    }
    for (int k = 0; k < n; k++) x[k] = out[k];
}`

func TestSynthesizeSplitArrays(t *testing.T) {
	src := `
#include <math.h>
void fft_split(double* re, double* im, int n) {
    double ore[n];
    double oim[n];
    for (int k = 0; k < n; k++) {
        double sre = 0.0;
        double sim = 0.0;
        for (int j = 0; j < n; j++) {
            double angle = -2.0 * M_PI * (double)j * (double)k / (double)n;
            sre += re[j] * cos(angle) - im[j] * sin(angle);
            sim += re[j] * sin(angle) + im[j] * cos(angle);
        }
        ore[k] = sre;
        oim[k] = sim;
    }
    for (int k = 0; k < n; k++) {
        re[k] = ore[k];
        im[k] = oim[k];
    }
}`
	res := synthOne(t, src, "fft_split", accel.NewPowerQuad(), pow2Profile("n", 16, 32))
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	b := res.Adapter.Cand.Input
	if b.Layout.String() != "split" || b.ReParam != "re" || b.ImParam != "im" {
		t.Errorf("binding = %s", res.Adapter.Cand)
	}
}

func TestSynthesizeRejectsNonFFT(t *testing.T) {
	// A function with an FFT-like signature that computes something else
	// must produce no adapter (generate-and-test catches it).
	src := `
typedef struct { double re; double im; } cpx;
void not_fft(cpx* x, int n) {
    for (int i = 0; i < n; i++) {
        x[i].re = x[i].re * 2.0;
        x[i].im = x[i].im * 0.5;
    }
}`
	res := synthOne(t, src, "not_fft", accel.NewFFTA(), pow2Profile("n"))
	if res.Adapter != nil {
		t.Fatalf("false positive: %s", res.Adapter.Cand)
	}
	if res.Candidates == 0 {
		t.Error("candidates should have been generated and rejected")
	}
}

func TestSynthesizeFailureClassification(t *testing.T) {
	cases := []struct {
		src, fn, want string
	}{
		{`typedef struct { double re; double im; } cpx;
void f(cpx* x, int n) { for (int i = 0; i < n; i++) { printf("%f", x[i].re); x[i].re = 0; } }`,
			"f", "printf"},
		{`void f(void* x, int n) { }`, "f", "void-pointer"},
		{`void f(double** x, int n) { for (int i = 0; i < n; i++) x[i][0] = 0; }`,
			"f", "nested-memory"},
		{`double f(double* mags, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s += mags[i];
    return s;
}`, "f", "interface-incompatibility"},
	}
	for _, c := range cases {
		res := synthOne(t, c.src, c.fn, accel.NewFFTA(), nil)
		if res.Adapter != nil {
			t.Errorf("%s: unexpected adapter", c.want)
			continue
		}
		if res.FailReason != c.want {
			t.Errorf("fail reason = %q, want %q", res.FailReason, c.want)
		}
	}
}

func TestSynthesizeFixedLength64(t *testing.T) {
	src := `
#include <math.h>
typedef struct { double re; double im; } cpx;
void fft64(cpx* x) {
    cpx out[64];
    for (int k = 0; k < 64; k++) {
        double sre = 0.0;
        double sim = 0.0;
        for (int j = 0; j < 64; j++) {
            double angle = -2.0 * M_PI * (double)j * (double)k / 64.0;
            sre += x[j].re * cos(angle) - x[j].im * sin(angle);
            sim += x[j].re * sin(angle) + x[j].im * cos(angle);
        }
        out[k].re = sre;
        out[k].im = sim;
    }
    for (int k = 0; k < 64; k++) x[k] = out[k];
}`
	res := synthOne(t, src, "fft64", accel.NewFFTA(), nil)
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	lb := res.Adapter.Cand.Length
	if lb.Param != "" || lb.Const != 64 {
		t.Errorf("length = %+v, want const 64", lb)
	}
	if !res.Adapter.Check.AlwaysTrue() {
		t.Errorf("constant 64 is always in domain; check = %q",
			res.Adapter.Check.CCondition("64"))
	}
}

func TestSynthesizeConstantReturn(t *testing.T) {
	src := `
#include <math.h>
typedef struct { double re; double im; } cpx;
int fft_ret(cpx* x, int n) {
    cpx out[n];
    for (int k = 0; k < n; k++) {
        double sre = 0.0;
        double sim = 0.0;
        for (int j = 0; j < n; j++) {
            double angle = -2.0 * M_PI * (double)j * (double)k / (double)n;
            sre += x[j].re * cos(angle) - x[j].im * sin(angle);
            sim += x[j].re * sin(angle) + x[j].im * cos(angle);
        }
        out[k].re = sre;
        out[k].im = sim;
    }
    for (int k = 0; k < n; k++) x[k] = out[k];
    return 0;
}`
	res := synthOne(t, src, "fft_ret", accel.NewPowerQuad(), pow2Profile("n", 16, 32))
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	if res.Adapter.ReturnConst == nil || *res.Adapter.ReturnConst != 0 {
		t.Errorf("return const = %v, want 0", res.Adapter.ReturnConst)
	}
}

func TestSynthesizeExp2LengthEncoding(t *testing.T) {
	// The user passes log2(n) — the paper's non-trivial conversion.
	src := `
#include <math.h>
typedef struct { double re; double im; } cpx;
void fft_log(cpx* x, int logn) {
    int n = 1 << logn;
    cpx out[n];
    for (int k = 0; k < n; k++) {
        double sre = 0.0;
        double sim = 0.0;
        for (int j = 0; j < n; j++) {
            double angle = -2.0 * M_PI * (double)j * (double)k / (double)n;
            sre += x[j].re * cos(angle) - x[j].im * sin(angle);
            sim += x[j].re * sin(angle) + x[j].im * cos(angle);
        }
        out[k].re = sre;
        out[k].im = sim;
    }
    for (int k = 0; k < n; k++) x[k] = out[k];
}`
	prof := analysis.NewProfile()
	prof.ObserveInt("logn", 4)
	prof.ObserveInt("logn", 5)
	res := synthOne(t, src, "fft_log", accel.NewPowerQuad(), prof)
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	lb := res.Adapter.Cand.Length
	if lb.Param != "logn" || lb.Conv.String() != "1<<n" {
		t.Errorf("length binding = %+v, want 2^logn", lb)
	}
}

func TestFigure16Shape(t *testing.T) {
	// Candidate counts: FFTA == PowerQuad, FFTW strictly larger.
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, spec := range accel.Specs() {
		res, err := Synthesize(context.Background(), f, f.Func("fft"), spec, pow2Profile("n"),
			Options{NumTests: 3, ExhaustAll: true})
		if err != nil {
			t.Fatal(err)
		}
		counts[spec.Name] = res.Candidates
	}
	if counts["ffta"] != counts["powerquad"] {
		t.Errorf("FFTA %d != PowerQuad %d", counts["ffta"], counts["powerquad"])
	}
	if counts["fftw"] <= counts["ffta"] {
		t.Errorf("FFTW %d should exceed FFTA %d", counts["fftw"], counts["ffta"])
	}
}

// A NaN distance must fail the comparison: otherwise a reference output
// of NaN (a wrong binding that makes the user code compute 0/0) matches
// any accelerator output.
func TestVectorsCloseRejectsNaN(t *testing.T) {
	nan := complex(math.NaN(), math.NaN())
	finite := []complex128{1, 2i, -3}
	for _, c := range []struct {
		name string
		a, b []complex128
	}{
		{"nan reference", []complex128{nan, nan, nan}, finite},
		{"nan accelerator", finite, []complex128{nan, nan, nan}},
		{"one nan", []complex128{1, complex(math.NaN(), 0), -3}, finite},
		{"nan and inf accelerator", []complex128{1}, []complex128{complex(math.NaN(), math.Inf(1))}},
		{"inf accelerator", finite, []complex128{1, complex(math.Inf(1), 0), -3}},
		{"inf reference", []complex128{1, complex(0, math.Inf(-1)), -3}, finite},
		{"inf on both sides", []complex128{complex(math.Inf(1), 0)}, []complex128{complex(math.Inf(1), 0)}},
	} {
		if vectorsClose(c.a, c.b, 1e-3) {
			t.Errorf("%s: vectorsClose = true, want false", c.name)
		}
	}
	if !vectorsClose(finite, finite, 1e-3) {
		t.Error("identical finite vectors are not close")
	}
}
