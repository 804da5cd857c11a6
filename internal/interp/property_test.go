package interp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"facc/internal/minic"
)

// Property tests (testing/quick): the interpreter's arithmetic must agree
// with the host's semantics for C's int/double operators, truncation and
// float32 rounding.

func propMachine(t *testing.T, src string) *Machine {
	t.Helper()
	f, err := minic.ParseAndCheck("prop.c", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPropertyIntArithmetic(t *testing.T) {
	m := propMachine(t, `
int add(int a, int b) { return a + b; }
int sub(int a, int b) { return a - b; }
int mul(int a, int b) { return a * b; }
int div2(int a, int b) { return a / b; }
int mod2(int a, int b) { return a % b; }
int band(int a, int b) { return a & b; }
int bor(int a, int b) { return a | b; }
int bxor(int a, int b) { return a ^ b; }
`)
	call := func(fn string, a, b int32) int64 {
		m.Reset()
		v, err := m.CallNamed(fn, []Value{IntValue(int64(a)), IntValue(int64(b))})
		if err != nil {
			t.Fatalf("%s(%d,%d): %v", fn, a, b, err)
		}
		return v.Int()
	}
	f := func(a, b int32) bool {
		if int64(int32(int64(a)+int64(b))) != call("add", a, b) {
			return false
		}
		if int64(int32(int64(a)-int64(b))) != call("sub", a, b) {
			return false
		}
		if int64(int32(int64(a)*int64(b))) != call("mul", a, b) {
			return false
		}
		if b != 0 {
			if int64(int32(a/b)) != call("div2", a, b) {
				return false
			}
			if int64(int32(a%b)) != call("mod2", a, b) {
				return false
			}
		}
		return int64(a&b) == call("band", a, b) &&
			int64(a|b) == call("bor", a, b) &&
			int64(a^b) == call("bxor", a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDoubleArithmetic(t *testing.T) {
	m := propMachine(t, `
double poly(double x, double y) { return x * y + x - y / (y * y + 1.0); }
`)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		m.Reset()
		v, err := m.CallNamed("poly", []Value{
			FloatValue(x, minic.Double), FloatValue(y, minic.Double)})
		if err != nil {
			return false
		}
		want := x*y + x - y/(y*y+1.0)
		return v.Float() == want || (math.IsNaN(v.Float()) && math.IsNaN(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFloat32Rounding(t *testing.T) {
	m := propMachine(t, `
float through(double x) {
    float f = (float)x;
    return f;
}`)
	f := func(x float64) bool {
		m.Reset()
		v, err := m.CallNamed("through", []Value{FloatValue(x, minic.Double)})
		if err != nil {
			return false
		}
		want := float64(float32(x))
		return v.Float() == want || (math.IsNaN(v.Float()) && math.IsNaN(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPropertyIntToDoubleAndBack(t *testing.T) {
	m := propMachine(t, `
int roundtrip(int x) {
    double d = (double)x;
    return (int)d;
}`)
	f := func(x int32) bool {
		m.Reset()
		v, err := m.CallNamed("roundtrip", []Value{IntValue(int64(x))})
		if err != nil {
			return false
		}
		return v.Int() == int64(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyShifts(t *testing.T) {
	m := propMachine(t, `
int shl(int a, int s) { return a << s; }
int shr(int a, int s) { return a >> s; }
`)
	f := func(a int32, sRaw uint8) bool {
		s := int64(sRaw % 31)
		m.Reset()
		vl, err := m.CallNamed("shl", []Value{IntValue(int64(a)), IntValue(s)})
		if err != nil {
			return false
		}
		m.Reset()
		vr, err := m.CallNamed("shr", []Value{IntValue(int64(a)), IntValue(s)})
		if err != nil {
			return false
		}
		return vl.Int() == int64(int32(a<<uint(s))) && vr.Int() == int64(a>>uint(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyComplexMultiplication(t *testing.T) {
	m := propMachine(t, `
#include <complex.h>
double complex cm(double complex a, double complex b) { return a * b; }
`)
	f := func(ar, ai, br, bi float64) bool {
		for _, v := range []float64{ar, ai, br, bi} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		a := complex(ar, ai)
		b := complex(br, bi)
		m.Reset()
		v, err := m.CallNamed("cm", []Value{
			ComplexValue(a, minic.ComplexDouble),
			ComplexValue(b, minic.ComplexDouble)})
		if err != nil {
			return false
		}
		return v.Complex() == a*b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the interpreter's cexp is cmplx.Exp bit for bit. Imaginary
// parts are drawn as raw bit patterns, so NaN payloads, infinities,
// subnormals and every magnitude occur, beside the special values
// themselves; the real part is each zero (the shortcut) or a few others.
func TestPropertyCexpMatchesCmplxExp(t *testing.T) {
	ims := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64,
		-math.MaxFloat64, math.Pi, -2 * math.Pi / 3, 1e300, 1e-300}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		ims = append(ims, math.Float64frombits(rng.Uint64()))
	}
	res := []float64{0, math.Copysign(0, -1), 1, -0.5, math.Inf(-1), math.NaN()}
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
			math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	for _, re := range res {
		for _, im := range ims {
			x := complex(re, im)
			if got, want := cexp(x), cmplx.Exp(x); !same(got, want) {
				t.Fatalf("cexp(%v [im bits %#x]) = %v, cmplx.Exp gives %v",
					x, math.Float64bits(im), got, want)
			}
		}
	}
}

// Property: sorting is a semantic fixed point — interpreting an insertion
// sort over random arrays always yields a sorted permutation.
func TestPropertySortSemantics(t *testing.T) {
	m := propMachine(t, `
void sort_it(int* a, int n) {
    for (int i = 1; i < n; i++) {
        int key = a[i];
        int j = i - 1;
        while (j >= 0 && a[j] > key) {
            a[j + 1] = a[j];
            j--;
        }
        a[j + 1] = key;
    }
}`)
	f := func(vals []int16) bool {
		if len(vals) > 40 {
			vals = vals[:40]
		}
		m.Reset()
		arr, err := m.NewArray("a", minic.Int, len(vals))
		if err != nil {
			return false
		}
		sum := 0
		for i, v := range vals {
			p := arr.Addr()
			p.Off = i
			if err := m.StoreScalar(p, IntValue(int64(v)), minic.Pos{}); err != nil {
				return false
			}
			sum += int(v)
		}
		if _, err := m.CallNamed("sort_it", []Value{arr, IntValue(int64(len(vals)))}); err != nil {
			return false
		}
		prev := int64(math.MinInt64)
		outSum := 0
		for i := range vals {
			p := arr.Addr()
			p.Off = i
			v, err := m.LoadScalar(p, minic.Pos{})
			if err != nil {
				return false
			}
			if v.Int() < prev {
				return false
			}
			prev = v.Int()
			outSum += int(v.Int())
		}
		return outSum == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
