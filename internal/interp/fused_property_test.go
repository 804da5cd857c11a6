package interp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"facc/internal/minic"
)

// TestPropertyBinaryMatchesGeneral checks every binary operator on every
// pair of arithmetic operand types against applyBinary, the general path
// that decides everything from the operands' own types. Each operator
// runs with its operands in frame slots, behind pointers, against int
// and double constants, and as a compound assignment to a slot and to
// memory; the value's type and bits, the fault (kind and message) and
// the operation counters must all agree.
func TestPropertyBinaryMatchesGeneral(t *testing.T) {
	types := []string{"char", "unsigned char", "int", "unsigned", "long",
		"float", "double", "float complex", "double complex"}
	kinds := map[string]minic.Kind{"+": minic.Plus, "-": minic.Minus, "*": minic.Star,
		"/": minic.Slash, "%": minic.Percent, "<<": minic.Shl, ">>": minic.Shr,
		"&": minic.Amp, "|": minic.Pipe, "^": minic.Caret, "<": minic.Lt, ">": minic.Gt,
		"<=": minic.Le, ">=": minic.Ge, "==": minic.EqEq, "!=": minic.NotEq}
	ops := []string{"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
		"<", ">", "<=", ">=", "==", "!="}
	integer := func(ty string) bool { return !strings.Contains(ty, "float") && !strings.Contains(ty, "double") }
	cmplx := func(ty string) bool { return strings.Contains(ty, "complex") }
	valid := func(op, l, r string) bool {
		switch op {
		case "%", "<<", ">>", "&", "|", "^":
			return integer(l) && integer(r)
		case "<", ">", "<=", ">=":
			return !cmplx(l) && !cmplx(r)
		}
		return true
	}
	type family struct{ op, l, r, id string }
	var fams []family
	var src strings.Builder
	for _, op := range ops {
		for _, l := range types {
			for _, r := range types {
				if !valid(op, l, r) {
					continue
				}
				id := fmt.Sprintf("f%d", len(fams))
				fams = append(fams, family{op, l, r, id})
				fmt.Fprintf(&src, "void %s_s(%s a, %s b, %s *out) { *out = a %s b; }\n", id, l, r, l, op)
				fmt.Fprintf(&src, "void %s_p(%s *a, %s *b, %s *out) { *out = *a %s *b; }\n", id, l, r, l, op)
				if valid(op, l, "int") {
					fmt.Fprintf(&src, "void %s_ki(%s a, %s b, %s *out) { *out = a %s 3; }\n", id, l, r, l, op)
				}
				if valid(op, l, "double") {
					fmt.Fprintf(&src, "void %s_kd(%s a, %s b, %s *out) { *out = a %s 2.5; }\n", id, l, r, l, op)
				}
				if !strings.ContainsAny(op[:1], "<>=!") || op == "<<" || op == ">>" {
					fmt.Fprintf(&src, "void %s_ca(%s a, %s b, %s *out) { a %s= b; *out = a; }\n", id, l, r, l, op)
					fmt.Fprintf(&src, "void %s_cp(%s *a, %s b, %s *out) { *a %s= b; *out = *a; }\n", id, l, r, l, op)
				}
			}
		}
	}
	f, err := minic.ParseAndCheck("binprop.c", src.String())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var pos minic.Pos
	for _, fam := range fams {
		sfn := f.Func(fam.id + "_s")
		lt, rt := sfn.Params[0].Type, sfn.Params[1].Type
		op := kinds[fam.op]
		for trial := 0; trial < 12; trial++ {
			a, b := propOperand(rng, lt), propOperand(rng, rt)
			variants := []struct {
				suffix string
				l, r   Value
			}{
				{"_s", a, b}, {"_p", a, b},
				{"_ki", a, IntValue(3)}, {"_kd", a, Value{T: minic.Double, F: 2.5}},
				{"_ca", a, b}, {"_cp", a, b},
			}
			for _, v := range variants {
				fn := f.Func(fam.id + v.suffix)
				if fn == nil {
					continue
				}
				// The expression computes in the checker's result type,
				// which *out (of the left type) then stores; a compound
				// assignment computes in the left type.
				res := lt
				if x := fn.Body.List[0].(*minic.ExprStmt).X.(*minic.AssignExpr); x.Op == minic.Assign {
					res = x.R.ResultType()
				}
				want, wantC, wantErr := generalBinary(m, op, v.l, v.r, res, lt, &pos)
				got, gotC, gotErr := callBinary(m, fn, v.l, v.r, lt)
				name := fmt.Sprintf("%s %s %s (%s) on %s, %s", fam.l, fam.op, fam.r, v.suffix, v.l, v.r)
				if !sameFault(gotErr, wantErr) {
					t.Fatalf("%s: fault %v, general path %v", name, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if !sameBits(got, want) {
					t.Fatalf("%s = %s (%s), general path %s (%s)", name, got, got.Type(), want, want.Type())
				}
				if gotC != wantC {
					t.Fatalf("%s: counters %+v, general path %+v", name, gotC, wantC)
				}
			}
		}
	}
}

// propOperand draws a random value of arithmetic type t, favouring the
// edges: zero, ±1, extremes and values that overflow narrow types.
func propOperand(rng *rand.Rand, t *minic.Type) Value {
	ints := []int64{0, 1, -1, 2, 7, -13, 127, 128, 255, 256, math.MaxInt32, math.MinInt32,
		1 << 32, math.MaxInt64, math.MinInt64, 40000, -40000, 63, 64}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e300, -1e-300, 3.75, -2.25,
		math.Inf(1), math.NaN(), 1e10, 16777217}
	var raw Value
	switch {
	case t.IsInteger():
		i := rng.Int63n(2001) - 1000
		if rng.Intn(2) == 0 {
			i = ints[rng.Intn(len(ints))]
		}
		raw = LongValue(i)
	case t.IsFloat():
		x := rng.NormFloat64() * 100
		if rng.Intn(3) == 0 {
			x = floats[rng.Intn(len(floats))]
		}
		raw = Value{T: minic.Double, F: x}
	default:
		re, im := rng.NormFloat64()*10, rng.NormFloat64()*10
		if rng.Intn(3) == 0 {
			re = floats[rng.Intn(len(floats))]
		}
		raw = ComplexValue(complex(re, im), minic.ComplexDouble)
	}
	v, err := Convert(raw, t)
	if err != nil {
		panic(err)
	}
	return v
}

// opCounters keeps the counters an operator charges.
func opCounters(c Counters) Counters {
	return Counters{IntOps: c.IntOps, FloatOps: c.FloatOps, FloatDivs: c.FloatDivs}
}

// generalBinary evaluates l op r through applyBinary, converting to the
// stored type as the out parameter's store does.
func generalBinary(m *Machine, op minic.Kind, l, r Value, res, lt *minic.Type,
	pos *minic.Pos) (v Value, c Counters, err error) {
	m.Reset()
	defer func() { c = opCounters(m.Counters) }()
	defer m.recoverFault(m.depth, len(m.args), &err)
	out := m.applyBinary(op, l, r, res, pos)
	v, err = Convert(out, lt)
	return v, Counters{}, err
}

// callBinary runs one compiled variant, passing pointer operands where
// its parameters are pointers, and reads back *out.
func callBinary(m *Machine, fn *minic.FuncDecl, l, r Value, lt *minic.Type) (Value, Counters, error) {
	m.Reset()
	cell := func(name string, v Value) Value {
		p, err := m.NewArray(name, v.T, 1)
		if err != nil {
			panic(err)
		}
		if err := m.StoreScalar(p.Addr(), v, minic.Pos{}); err != nil {
			panic(err)
		}
		return p
	}
	args := []Value{l, r}
	for i := range args {
		if fn.Params[i].Type.Kind == minic.TPointer {
			args[i] = cell("arg", args[i])
		}
	}
	out, err := m.NewArray("out", lt, 1)
	if err != nil {
		panic(err)
	}
	if _, err := m.Call(fn, append(args, out)); err != nil {
		return Value{}, Counters{}, err
	}
	c := opCounters(m.Counters)
	v, err := m.LoadScalar(out.Addr(), minic.Pos{})
	if err != nil {
		panic(err)
	}
	return v, c, nil
}

// sameBits compares values bit for bit, taking any two NaNs as equal.
func sameBits(a, b Value) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	if a.Type().String() != b.Type().String() || !same(a.F, b.F) {
		return false
	}
	if a.Kind() == VComplex {
		return same(a.imag(), b.imag())
	}
	return a.I == b.I
}

func sameFault(a, b error) bool {
	var ra, rb *RuntimeError
	if !errors.As(a, &ra) || !errors.As(b, &rb) {
		return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
	}
	return ra.Kind == rb.Kind && ra.Msg == rb.Msg
}
