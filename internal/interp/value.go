// Package interp is a bounds-checked interpreter for MiniC that compiles
// each function to Go closures once per Machine. It plays two roles in
// FACC: it executes user FFT code during IO-based generate-and-test (with
// AddressSanitizer-style fault detection standing in for the paper's ASan
// runs), and it counts executed operations to feed the platform
// performance models used by the evaluation harness.
//
// The closures are specialised by what the compiler knows statically. A
// binary operator reads slot locals and constants inline and combines its
// operands with a kernel fused for its operator and usual-arithmetic
// type; comparisons used as conditions branch without building an int;
// stores, assignments to slot locals and scalar declarations skip Convert
// for a value that already has the target's long, double or double
// complex type; math builtins take their arguments without allocating.
// An operand whose dynamic type differs from its static type (a cell
// punned through a pointer of another type) takes the general paths,
// applyBinary and Convert, so specialisation changes no result, fault or
// counter.
package interp

import (
	"fmt"
	"math"

	"facc/internal/minic"
)

// ValueKind discriminates Value.
type ValueKind int

// Value kinds.
const (
	VVoid ValueKind = iota
	VInt
	VFloat
	VComplex
	VPointer
	VStruct
)

// kindOf maps a type kind to the kind of value it holds.
var kindOf = [...]ValueKind{
	minic.TVoid: VVoid, minic.TChar: VInt, minic.TInt: VInt, minic.TLong: VInt,
	minic.TFloat: VFloat, minic.TDouble: VFloat,
	minic.TComplexFloat: VComplex, minic.TComplexDouble: VComplex,
	minic.TPointer: VPointer, minic.TArray: VVoid, minic.TStruct: VStruct,
	minic.TFunc: VVoid,
}

// Value is a runtime MiniC value in four words; its kind follows from T.
//
//   - integers keep the value in I;
//   - real floats keep it in F;
//   - complex values keep the real part in F and the imaginary part's
//     bits in I;
//   - pointers keep the allocation in A (nil is NULL), the cell offset in
//     I and a view flag in F (see ptrView);
//   - structs refer to their cells: A and I locate the first leaf.
type Value struct {
	T *minic.Type
	A *Alloc
	I int64
	F float64
}

// Pointer view flags, kept in Value.F. A pointer views memory as T.Elem
// unless flagged: viewVoid marks a void* that still views T.Elem (so
// round-trips through void* are lossless), viewNone a null pointer that
// never had a view.
const (
	viewVoid = 1
	viewNone = 2
)

// voidPtr is the type a viewVoid pointer reports.
var voidPtr = minic.PointerTo(minic.Void)

// Kind returns the value's kind.
func (v Value) Kind() ValueKind {
	if v.T == nil {
		return VVoid
	}
	return kindOf[v.T.Kind]
}

// Type returns the value's C type (void* for a pointer converted to void*).
func (v Value) Type() *minic.Type {
	if v.F == viewVoid && v.T != nil && v.T.Kind == minic.TPointer {
		return voidPtr
	}
	return v.T
}

// ptrView returns the element type a pointer value views memory as.
func (v Value) ptrView() *minic.Type {
	if v.F == viewNone {
		return nil
	}
	return v.T.Elem
}

// Addr returns a pointer value's address.
func (v Value) Addr() Pointer {
	return Pointer{Alloc: v.A, Off: int(v.I), Elem: v.ptrView()}
}

// IntValue returns an int-typed value.
func IntValue(i int64) Value { return Value{T: minic.Int, I: i} }

// LongValue returns a long-typed value.
func LongValue(i int64) Value { return Value{T: minic.Long, I: i} }

// FloatValue returns a value of the given real floating type. float values
// are rounded through float32 to model single-precision hardware.
func FloatValue(f float64, t *minic.Type) Value {
	if t.Kind == minic.TFloat {
		f = float64(float32(f))
	}
	return Value{T: t, F: f}
}

// ComplexValue returns a complex value of the given complex type, rounding
// through complex64 for float _Complex.
func ComplexValue(c complex128, t *minic.Type) Value {
	if t.Kind == minic.TComplexFloat {
		c = complex128(complex64(c))
	}
	return Value{T: t, F: real(c), I: int64(math.Float64bits(imag(c)))}
}

// PointerValue makes a pointer of type t to address p.
func PointerValue(p Pointer, t *minic.Type) Value {
	v := Value{T: t, A: p.Alloc, I: int64(p.Off)}
	switch {
	case p.Elem == nil:
		v.F = viewNone
	case t.Elem.Kind == minic.TVoid && p.Elem.Kind != minic.TVoid:
		v.T, v.F = minic.PointerTo(p.Elem), viewVoid
	}
	return v
}

// VoidValue is the result of void expressions.
func VoidValue() Value { return Value{T: minic.Void} }

// imag returns the imaginary part of a complex value.
func (v Value) imag() float64 { return math.Float64frombits(uint64(v.I)) }

// IsZero reports whether the value is zero/null (for conditions).
func (v Value) IsZero() bool {
	switch v.Kind() {
	case VInt:
		return v.I == 0
	case VFloat:
		return v.F == 0
	case VComplex:
		return v.F == 0 && v.imag() == 0
	case VPointer:
		return v.A == nil
	default:
		return true
	}
}

// Float returns the value as a float64 (integers widen).
func (v Value) Float() float64 {
	switch v.Kind() {
	case VFloat, VComplex:
		return v.F
	case VInt:
		return float64(v.I)
	default:
		return 0
	}
}

// Complex returns the value as a complex128.
func (v Value) Complex() complex128 {
	switch v.Kind() {
	case VComplex:
		return complex(v.F, v.imag())
	case VFloat:
		return complex(v.F, 0)
	case VInt:
		return complex(float64(v.I), 0)
	default:
		return 0
	}
}

// Int returns the value as an int64 (floats truncate toward zero).
func (v Value) Int() int64 {
	switch v.Kind() {
	case VInt:
		return v.I
	case VFloat, VComplex:
		return int64(v.F)
	default:
		return 0
	}
}

func (v Value) String() string {
	switch v.Kind() {
	case VVoid:
		return "void"
	case VInt:
		return fmt.Sprintf("%d", v.I)
	case VFloat:
		return fmt.Sprintf("%g", v.F)
	case VComplex:
		return fmt.Sprintf("(%g%+gi)", v.F, v.imag())
	case VPointer:
		return v.Addr().String()
	case VStruct:
		return fmt.Sprintf("struct{%d leaves}", FlatSize(v.T))
	default:
		return "?"
	}
}

// Convert coerces v to type t following C conversion rules. Pointer/int
// conversions are allowed; struct conversions require identical types.
func Convert(v Value, t *minic.Type) (Value, error) {
	if v.T == t {
		// Values are kept normalized, so conversions to their own type
		// are the identity wherever no narrowing or flag is involved.
		switch t.Kind {
		case minic.TLong, minic.TDouble, minic.TComplexDouble:
			return v, nil
		}
	}
	k := v.Kind()
	switch {
	case t.Kind == minic.TVoid:
		return VoidValue(), nil
	case t.IsInteger():
		var i int64
		switch k {
		case VInt:
			i = v.I
		case VFloat, VComplex:
			i = int64(v.F)
		case VPointer:
			i = v.Addr().AsInt()
		default:
			return Value{}, fmt.Errorf("cannot convert %s to %s", v.Type(), t)
		}
		return truncInt(i, t), nil
	case t.IsFloat():
		switch k {
		case VInt, VFloat, VComplex:
			return FloatValue(v.Float(), t), nil
		default:
			return Value{}, fmt.Errorf("cannot convert %s to %s", v.Type(), t)
		}
	case t.IsComplex():
		switch k {
		case VInt, VFloat, VComplex:
			return ComplexValue(v.Complex(), t), nil
		default:
			return Value{}, fmt.Errorf("cannot convert %s to %s", v.Type(), t)
		}
	case t.Kind == minic.TPointer:
		switch k {
		case VPointer:
			// Retyping a pointer changes its view; void* keeps the
			// original view so round-trips through void* are lossless.
			switch {
			case t.Elem.Kind != minic.TVoid:
				return Value{T: t, A: v.A, I: v.I}, nil
			case v.F == viewNone || v.T.Elem.Kind == minic.TVoid:
				return Value{T: t, A: v.A, I: v.I, F: v.F}, nil
			default:
				return Value{T: v.T, A: v.A, I: v.I, F: viewVoid}, nil
			}
		case VInt:
			if v.I == 0 {
				return Value{T: t, F: viewNone}, nil
			}
			return Value{}, fmt.Errorf("cannot convert non-zero integer %d to pointer", v.I)
		default:
			return Value{}, fmt.Errorf("cannot convert %s to %s", v.Type(), t)
		}
	case t.Kind == minic.TStruct:
		if k != VStruct {
			return Value{}, fmt.Errorf("cannot convert %s to %s", v.Type(), t)
		}
		v.T = t
		return v, nil
	default:
		return Value{}, fmt.Errorf("cannot convert %s to %s", v.Type(), t)
	}
}

// truncInt narrows an integer to the width/signedness of t.
func truncInt(i int64, t *minic.Type) Value {
	switch t.Kind {
	case minic.TChar:
		if t.Unsigned {
			i = int64(uint8(i))
		} else {
			i = int64(int8(i))
		}
	case minic.TInt:
		if t.Unsigned {
			i = int64(uint32(i))
		} else {
			i = int64(int32(i))
		}
	}
	return Value{T: t, I: i}
}

// zeroValue builds the zero value for a scalar/pointer leaf type.
func zeroValue(t *minic.Type) Value {
	if t.Kind == minic.TPointer {
		return Value{T: t, F: viewNone}
	}
	return Value{T: t}
}
