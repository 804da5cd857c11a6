package interp

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"facc/internal/minic"
)

// run parses, checks and builds a machine for src.
func run(t *testing.T, src string) *Machine {
	t.Helper()
	f, err := minic.ParseAndCheck("test.c", src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	m, err := NewMachine(f)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	return m
}

// callInt runs fn and returns its int result.
func callInt(t *testing.T, m *Machine, fn string, args ...int64) int64 {
	t.Helper()
	vals := make([]Value, len(args))
	for i, a := range args {
		vals[i] = IntValue(a)
	}
	v, err := m.CallNamed(fn, vals)
	if err != nil {
		t.Fatalf("call %s: %v", fn, err)
	}
	return v.Int()
}

func callFloat(t *testing.T, m *Machine, fn string, args ...float64) float64 {
	t.Helper()
	vals := make([]Value, len(args))
	for i, a := range args {
		vals[i] = FloatValue(a, minic.Double)
	}
	v, err := m.CallNamed(fn, vals)
	if err != nil {
		t.Fatalf("call %s: %v", fn, err)
	}
	return v.Float()
}

func TestArithmetic(t *testing.T) {
	m := run(t, `
int calc(int a, int b) {
    return (a + b) * 2 - a / b + a % b;
}`)
	if got := callInt(t, m, "calc", 7, 3); got != 19 {
		t.Errorf("calc(7,3) = %d, want 19", got)
	}
}

func TestFloatArithmetic(t *testing.T) {
	m := run(t, `
double quad(double x) { return 2.0*x*x - 3.0*x + 1.0; }`)
	if got := callFloat(t, m, "quad", 2.0); got != 3.0 {
		t.Errorf("quad(2) = %g, want 3", got)
	}
}

func TestRecursionFib(t *testing.T) {
	m := run(t, `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}`)
	if got := callInt(t, m, "fib", 15); got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
}

func TestLoops(t *testing.T) {
	m := run(t, `
int sum_for(int n) {
    int s = 0;
    for (int i = 1; i <= n; i++) s += i;
    return s;
}
int sum_while(int n) {
    int s = 0, i = 1;
    while (i <= n) { s += i; i++; }
    return s;
}
int sum_do(int n) {
    int s = 0, i = 1;
    do { s += i; i++; } while (i <= n);
    return s;
}
int sum_wtb(int n) {
    int s = 0, i = 1;
    while (1) {
        if (i > n) break;
        s += i;
        i++;
    }
    return s;
}`)
	for _, fn := range []string{"sum_for", "sum_while", "sum_do", "sum_wtb"} {
		if got := callInt(t, m, fn, 10); got != 55 {
			t.Errorf("%s(10) = %d, want 55", fn, got)
		}
	}
}

func TestContinueAndNestedBreak(t *testing.T) {
	m := run(t, `
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (i % 2 == 0) continue;
        for (int j = 0; j < n; j++) {
            if (j > i) break;
            s++;
        }
    }
    return s;
}`)
	// odd i in [0,6): i=1 -> j:0..1 (2), i=3 -> 4, i=5 -> 6 => 12
	if got := callInt(t, m, "f", 6); got != 12 {
		t.Errorf("f(6) = %d, want 12", got)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	m := run(t, `
int f(int x) {
    int r = 0;
    switch (x) {
    case 1: r += 1;
    case 2: r += 2; break;
    case 3: r += 3; break;
    default: r = 100;
    }
    return r;
}`)
	cases := map[int64]int64{1: 3, 2: 2, 3: 3, 9: 100}
	for in, want := range cases {
		if got := callInt(t, m, "f", in); got != want {
			t.Errorf("f(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestArraysAndPointers(t *testing.T) {
	m := run(t, `
int sum(int* a, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) s += a[i];
    return s;
}
int local_array(void) {
    int a[5];
    for (int i = 0; i < 5; i++) a[i] = i * i;
    return sum(a, 5);
}
int ptr_walk(void) {
    int a[4] = {1, 2, 3, 4};
    int* p = a;
    int* end = a + 4;
    int s = 0;
    while (p < end) s += *p++;
    return s;
}`)
	if got := callInt(t, m, "local_array"); got != 30 {
		t.Errorf("local_array() = %d, want 30", got)
	}
	if got := callInt(t, m, "ptr_walk"); got != 10 {
		t.Errorf("ptr_walk() = %d, want 10", got)
	}
}

func TestMultiDimArray(t *testing.T) {
	m := run(t, `
int f(void) {
    int g[3][4];
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 4; j++)
            g[i][j] = i * 10 + j;
    return g[2][3];
}`)
	if got := callInt(t, m, "f"); got != 23 {
		t.Errorf("f() = %d, want 23", got)
	}
}

func TestVLA(t *testing.T) {
	m := run(t, `
int f(int n) {
    int buf[n];
    for (int i = 0; i < n; i++) buf[i] = i;
    int s = 0;
    for (int i = 0; i < n; i++) s += buf[i];
    return s;
}`)
	if got := callInt(t, m, "f", 10); got != 45 {
		t.Errorf("f(10) = %d, want 45", got)
	}
}

func TestStructs(t *testing.T) {
	m := run(t, `
typedef struct { float re; float im; } cpx;

cpx cmul(cpx a, cpx b) {
    cpx r;
    r.re = a.re * b.re - a.im * b.im;
    r.im = a.re * b.im + a.im * b.re;
    return r;
}

float test(void) {
    cpx x;
    x.re = 1.0f; x.im = 2.0f;
    cpx y;
    y.re = 3.0f; y.im = 4.0f;
    cpx z = cmul(x, y);
    return z.re * 100.0f + z.im;
}`)
	// (1+2i)(3+4i) = -5 + 10i -> -500 + 10 = -490
	if got := callFloat(t, m, "test"); got != -490 {
		t.Errorf("test() = %g, want -490", got)
	}
}

func TestStructPointerAndArray(t *testing.T) {
	m := run(t, `
typedef struct { double re; double im; } cpx;

void conj_all(cpx* data, int n) {
    for (int i = 0; i < n; i++) {
        data[i].im = -data[i].im;
    }
}

double test(void) {
    cpx arr[3];
    for (int i = 0; i < 3; i++) { arr[i].re = i; arr[i].im = i + 1; }
    conj_all(arr, 3);
    cpx* p = &arr[2];
    return p->im;
}`)
	if got := callFloat(t, m, "test"); got != -3 {
		t.Errorf("test() = %g, want -3", got)
	}
}

func TestStructAssignmentCopies(t *testing.T) {
	m := run(t, `
typedef struct { int a; int b; } pair;
int f(void) {
    pair x;
    x.a = 1; x.b = 2;
    pair y = x;
    y.a = 100;
    return x.a;
}`)
	if got := callInt(t, m, "f"); got != 1 {
		t.Errorf("struct assignment aliased: got %d, want 1", got)
	}
}

func TestMallocFree(t *testing.T) {
	m := run(t, `
int f(int n) {
    int* buf = (int*)malloc(n * sizeof(int));
    for (int i = 0; i < n; i++) buf[i] = i * 2;
    int s = 0;
    for (int i = 0; i < n; i++) s += buf[i];
    free(buf);
    return s;
}`)
	if got := callInt(t, m, "f", 5); got != 20 {
		t.Errorf("f(5) = %d, want 20", got)
	}
}

func TestMallocStructArray(t *testing.T) {
	m := run(t, `
typedef struct { double re; double im; } cpx;
double f(int n) {
    cpx* v = (cpx*)malloc(n * sizeof(cpx));
    for (int i = 0; i < n; i++) { v[i].re = i; v[i].im = -i; }
    double s = 0;
    for (int i = 0; i < n; i++) s += v[i].re - v[i].im;
    free(v);
    return s;
}`)
	if got := callFloat(t, m, "f", 4); got != 12 { // sum 2i for i<4 = 12
		t.Errorf("f(4) = %g, want 12", got)
	}
}

func TestGlobalsAndMemoization(t *testing.T) {
	m := run(t, `
int cache_valid = 0;
int cache = 0;
int expensive(void) {
    if (cache_valid) return cache;
    cache = 42;
    cache_valid = 1;
    return cache;
}`)
	if got := callInt(t, m, "expensive"); got != 42 {
		t.Errorf("first call = %d", got)
	}
	// Global state survives across calls on the same machine.
	if got := callInt(t, m, "expensive"); got != 42 {
		t.Errorf("second call = %d", got)
	}
}

func TestGlobalArrayInitializer(t *testing.T) {
	m := run(t, `
double weights[4] = {0.5, 1.5, 2.5, 3.5};
double f(int i) { return weights[i]; }`)
	v, err := m.CallNamed("f", []Value{IntValue(2)})
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 2.5 {
		t.Errorf("weights[2] = %g", v.Float())
	}
}

func TestMathBuiltins(t *testing.T) {
	m := run(t, `
double f(double x) { return sqrt(x) + sin(0.0) + pow(2.0, 3.0); }`)
	if got := callFloat(t, m, "f", 16.0); got != 12.0 {
		t.Errorf("f(16) = %g, want 12", got)
	}
}

func TestComplexBuiltins(t *testing.T) {
	m := run(t, `
#include <complex.h>
double f(double angle) {
    double complex z = cexp(angle * I);
    return creal(z) * creal(z) + cimag(z) * cimag(z);
}`)
	if got := callFloat(t, m, "f", 1.234); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("|e^ix|^2 = %g, want 1", got)
	}
}

func TestComplexArithmetic(t *testing.T) {
	m := run(t, `
#include <complex.h>
double complex mul(double complex a, double complex b) { return a * b; }`)
	a := ComplexValue(complex(1, 2), minic.ComplexDouble)
	b := ComplexValue(complex(3, 4), minic.ComplexDouble)
	v, err := m.CallNamed("mul", []Value{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if v.Complex() != complex(-5, 10) {
		t.Errorf("mul = %v, want (-5+10i)", v.Complex())
	}
}

func TestFloat32Rounding(t *testing.T) {
	m := run(t, `
float f(void) {
    float x = 16777216.0f; // 2^24: adding 1 is not representable in float32
    x = x + 1.0f;
    return x;
}`)
	if got := callFloat(t, m, "f"); got != 16777216.0 {
		t.Errorf("float32 rounding not modeled: got %g", got)
	}
}

func TestPrintfCapture(t *testing.T) {
	m := run(t, `
int f(void) {
    printf("x=%d y=%f s=%s c=%c\n", 42, 1.5, "hi", 'z');
    printf("%5d|%-5d|%05.1f\n", 7, 7, 2.25);
    return 0;
}`)
	callInt(t, m, "f")
	out := m.Output()
	if !strings.Contains(out, "x=42 y=1.500000 s=hi c=z") {
		t.Errorf("printf output = %q", out)
	}
	if !strings.Contains(out, "    7|7    |002.2") && !strings.Contains(out, "    7|7    |002.3") {
		t.Errorf("width formatting = %q", out)
	}
}

func TestFaultOutOfBounds(t *testing.T) {
	m := run(t, `
int f(void) {
    int a[4];
    return a[7];
}`)
	_, err := m.CallNamed("f", nil)
	if FaultOf(err) != FaultOutOfBounds {
		t.Errorf("err = %v, want out-of-bounds", err)
	}
}

func TestFaultOOBWrite(t *testing.T) {
	m := run(t, `
void f(int* a, int n) {
    for (int i = 0; i <= n; i++) a[i] = 0; // classic off-by-one
}`)
	arr, err := m.NewArray("buf", minic.Int, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.CallNamed("f", []Value{arr, IntValue(4)})
	if FaultOf(err) != FaultOutOfBounds {
		t.Errorf("err = %v, want out-of-bounds", err)
	}
}

func TestFaultNullDeref(t *testing.T) {
	m := run(t, `int f(int* p) { return *p; }`)
	null := PointerValue(Pointer{}, minic.PointerTo(minic.Int))
	_, err := m.CallNamed("f", []Value{null})
	if FaultOf(err) != FaultNullDeref {
		t.Errorf("err = %v, want null-deref", err)
	}
}

func TestFaultUseAfterFree(t *testing.T) {
	m := run(t, `
int f(void) {
    int* p = (int*)malloc(4 * sizeof(int));
    p[0] = 3;
    free(p);
    return p[0];
}`)
	_, err := m.CallNamed("f", nil)
	if FaultOf(err) != FaultUseAfterFree {
		t.Errorf("err = %v, want use-after-free", err)
	}
}

func TestFaultDoubleFree(t *testing.T) {
	m := run(t, `
void f(void) {
    int* p = (int*)malloc(8);
    free(p);
    free(p);
}`)
	_, err := m.CallNamed("f", nil)
	if FaultOf(err) != FaultDoubleFree {
		t.Errorf("err = %v, want double-free", err)
	}
}

func TestFaultDivZero(t *testing.T) {
	m := run(t, `int f(int a) { return 10 / a; }`)
	_, err := m.CallNamed("f", []Value{IntValue(0)})
	if FaultOf(err) != FaultDivZero {
		t.Errorf("err = %v, want division-by-zero", err)
	}
}

func TestFaultInfiniteLoopFuel(t *testing.T) {
	m := run(t, `void f(void) { while (1) { } }`)
	m.MaxSteps = 10000
	_, err := m.CallNamed("f", nil)
	if FaultOf(err) != FaultFuelExhausted {
		t.Errorf("err = %v, want fuel-exhausted", err)
	}
}

func TestFaultStackOverflow(t *testing.T) {
	m := run(t, `int f(int n) { return f(n + 1); }`)
	m.MaxDepth = 100
	_, err := m.CallNamed("f", []Value{IntValue(0)})
	if FaultOf(err) != FaultStackOverflow {
		t.Errorf("err = %v, want stack-overflow", err)
	}
}

func TestCounters(t *testing.T) {
	m := run(t, `
double f(double* a, int n) {
    double s = 0;
    for (int i = 0; i < n; i++) s += a[i] * a[i];
    return s;
}`)
	arr, err := m.NewArray("a", minic.Double, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetFloatArray(arr, []float64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	v, err := m.CallNamed("f", []Value{arr, IntValue(8)})
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 204 {
		t.Errorf("sum of squares = %g, want 204", v.Float())
	}
	c := m.Counters
	// 8 iterations x (1 mul + 1 add) = 16 float ops.
	if c.FloatOps != 16 {
		t.Errorf("FloatOps = %d, want 16", c.FloatOps)
	}
	if c.Loads == 0 || c.Stores == 0 || c.Branches == 0 {
		t.Errorf("counters not populated: %+v", c)
	}
}

func TestObserveHook(t *testing.T) {
	m := run(t, `
int f(int n) {
    int x = 0;
    for (int i = 0; i < n; i++) x = i * 2;
    return x;
}`)
	seen := map[string][]int64{}
	m.Observe = func(name string, v Value) {
		if v.Kind() == VInt {
			seen[name] = append(seen[name], v.I)
		}
	}
	callInt(t, m, "f", 3)
	if got := seen["x"]; len(got) != 4 || got[3] != 4 {
		t.Errorf("observed x = %v", got)
	}
}

// TestObserveOrder pins what value profiling sees, in order: integer
// parameters, every scalar initializer before conversion to the declared
// type, and assignments to named variables after it; not stores through
// pointers or fields, increments, or struct copies.
func TestObserveOrder(t *testing.T) {
	m := run(t, `
typedef struct { double re; double im; } cpx;
int g(int k) { return k + 1; }
double f(int n, double s) {
    double d = n;
    int x = 2.75;
    int y = {7};
    int *p = &x;
    cpx a;
    cpx b;
    a.re = s;
    b = a;
    x = d * 2;
    y += g(n);
    *p = 9;
    x++;
    return d + x + y + b.re;
}`)
	var seen []string
	m.Observe = func(name string, v Value) {
		seen = append(seen, fmt.Sprintf("%s=%s:%s", name, v, v.Type()))
	}
	v, err := m.CallNamed("f", []Value{IntValue(3), FloatValue(1.5, minic.Double)})
	if err != nil || v.Float() != 25.5 {
		t.Fatalf("f(3, 1.5) = %v, %v; want 25.5", v, err)
	}
	want := []string{"n=3:int", "d=3:int", "x=2.75:double", "y=7:int",
		"p=&x[0]:int*", "x=6:int", "k=3:int", "y=11:int"}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Errorf("observed %q\nwant     %q", seen, want)
	}
}

// TestInterpretedDFT cross-checks a MiniC DFT against a Go DFT.
func TestInterpretedDFT(t *testing.T) {
	m := run(t, `
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
}`)
	n := 8
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(float64(i)*0.7-1, float64(i%3)*0.3)
	}
	inArr, _ := m.NewArray("in", minic.ComplexDouble, n)
	outArr, _ := m.NewArray("out", minic.ComplexDouble, n)
	if err := m.SetComplexArray(inArr, in); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CallNamed("dft", []Value{inArr, outArr, IntValue(int64(n))}); err != nil {
		t.Fatal(err)
	}
	got, err := m.GetComplexArray(outArr, n)
	if err != nil {
		t.Fatal(err)
	}
	want := goDFT(in)
	if !ComplexSlicesAlmostEqual(got, want, 1e-9) {
		t.Errorf("DFT mismatch:\ngot  %v\nwant %v", got, want)
	}
}

// TestInterpretedRadix2FFT cross-checks an iterative radix-2 FFT written in
// MiniC (struct complex representation) against a Go DFT.
func TestInterpretedRadix2FFT(t *testing.T) {
	m := run(t, `
#include <math.h>
typedef struct { double re; double im; } cpx;

void fft(cpx* x, int n) {
    // bit reversal permutation
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
}`)
	n := 16
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(math.Sin(float64(i)), math.Cos(2*float64(i)))
	}
	f := m.File.Func("fft")
	if f == nil {
		t.Fatal("fft not found")
	}
	elem := f.Params[0].Type.Elem // cpx struct
	arr, err := m.NewArray("x", elem, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetStructComplexArray(arr, in, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CallNamed("fft", []Value{arr, IntValue(int64(n))}); err != nil {
		t.Fatal(err)
	}
	got, err := m.GetStructComplexArray(arr, n, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := goDFT(in)
	if !ComplexSlicesAlmostEqual(got, want, 1e-9) {
		t.Errorf("FFT mismatch:\ngot  %v\nwant %v", got, want)
	}
}

// goDFT is an O(n^2) reference DFT.
func goDFT(in []complex128) []complex128 {
	n := len(in)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			sum += in[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

func TestSizeofVLAExpr(t *testing.T) {
	m := run(t, `
long f(int n) {
    double buf[n];
    return sizeof(buf) + sizeof(double);
}`)
	if got := callInt(t, m, "f", 3); got != 32 {
		t.Errorf("sizeof = %d, want 32", got)
	}
}

func TestMemcpyMemset(t *testing.T) {
	m := run(t, `
int f(void) {
    int a[4] = {1, 2, 3, 4};
    int b[4];
    memcpy(b, a, 4 * sizeof(int));
    memset(a, 0, 4 * sizeof(int));
    return b[0] + b[3] * 10 + a[2];
}`)
	if got := callInt(t, m, "f"); got != 41 {
		t.Errorf("f() = %d, want 41", got)
	}
}

func TestExitBuiltin(t *testing.T) {
	m := run(t, `void f(void) { exit(3); }`)
	_, err := m.CallNamed("f", nil)
	if FaultOf(err) != FaultExit {
		t.Fatalf("err = %v, want exit fault", err)
	}
	if m.ExitCode() != 3 {
		t.Errorf("exit code = %d", m.ExitCode())
	}
}

func TestTernaryAndComma(t *testing.T) {
	m := run(t, `
int f(int x) {
    int y = (x > 0) ? x * 2 : -x;
    int z = (y += 1, y * 10);
    return z;
}`)
	if got := callInt(t, m, "f", 5); got != 110 {
		t.Errorf("f(5) = %d, want 110", got)
	}
	if got := callInt(t, m, "f", -4); got != 50 {
		t.Errorf("f(-4) = %d, want 50", got)
	}
}

func TestVoidPointerRoundTrip(t *testing.T) {
	m := run(t, `
int f(void) {
    int a[3] = {5, 6, 7};
    void* vp = (void*)a;
    int* p = (int*)vp;
    return p[1];
}`)
	if got := callInt(t, m, "f"); got != 6 {
		t.Errorf("f() = %d, want 6", got)
	}
}

// ComplexSlicesAlmostEqual compares two complex slices with the given
// relative/absolute tolerance.
func ComplexSlicesAlmostEqual(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEqual(real(a[i]), real(b[i]), tol) || !almostEqual(imag(a[i]), imag(b[i]), tol) {
			return false
		}
	}
	return true
}

// almostEqual compares floats with combined absolute/relative tolerance.
func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}
