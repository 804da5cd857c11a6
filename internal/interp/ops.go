package interp

import (
	"facc/internal/minic"
)

func (c *compiler) binary(x *minic.BinaryExpr, pos *minic.Pos) evalFn {
	m := c.m
	l, r := c.expr(x.L), c.expr(x.R)
	if x.Op == minic.AndAnd || x.Op == minic.OrOr {
		// Short-circuit operators evaluate lazily.
		and := x.Op == minic.AndAnd
		return func(fr *frame) Value {
			m.step(pos)
			lz := l(fr).IsZero()
			m.Counters.Branches++
			if and && lz {
				return IntValue(0)
			}
			if !and && !lz {
				return IntValue(1)
			}
			return boolValue(!r(fr).IsZero())
		}
	}
	apply := binaryOp(m, x.Op, x.L.ResultType(), x.R.ResultType(), x.ResultType(), pos)
	return func(fr *frame) Value {
		m.step(pos)
		lv := l(fr)
		return apply(lv, r(fr))
	}
}

func isComparison(op minic.Kind) bool {
	switch op {
	case minic.Lt, minic.Gt, minic.Le, minic.Ge, minic.EqEq, minic.NotEq:
		return true
	}
	return false
}

// binaryOp compiles op on operands of static types lt and rt with result
// type res. Operands of exactly those types take a path whose
// conversions were resolved here; any other operands (a cell punned
// through a pointer of another type, say) take the general path, which
// decides everything from the values' own types.
func binaryOp(m *Machine, op minic.Kind, lt, rt, res *minic.Type, pos *minic.Pos) func(l, r Value) Value {
	general := func(l, r Value) Value { return m.applyBinary(op, l, r, res, pos) }
	if !lt.IsArithmetic() || !rt.IsArithmetic() {
		return general
	}
	ct := minic.UsualArith(lt, rt)
	// Converting the result to res is the identity when res is ct.
	result := func(v Value) Value { return v }
	if res != ct && res.IsArithmetic() {
		result = func(v Value) Value {
			cv, err := Convert(v, res)
			m.must(err)
			return cv
		}
	}
	complexOperand := lt.IsComplex() || rt.IsComplex()
	switch {
	case isComparison(op) && lt.IsInteger() && rt.IsInteger():
		return func(l, r Value) Value {
			if l.T != lt || r.T != rt {
				return general(l, r)
			}
			m.Counters.IntOps++
			a, b := l.I, r.I
			return boolValue(compareOrd(op, a < b, a > b, a == b))
		}
	case isComparison(op) && !complexOperand:
		return func(l, r Value) Value {
			if l.T != lt || r.T != rt {
				return general(l, r)
			}
			m.Counters.IntOps++
			a, b := l.Float(), r.Float()
			return boolValue(compareOrd(op, a < b, a > b, a == b))
		}
	case isComparison(op):
		return general
	case ct.IsInteger():
		return func(l, r Value) Value {
			if l.T != lt || r.T != rt {
				return general(l, r)
			}
			return result(m.intOp(op, truncInt(l.I, ct).I, truncInt(r.I, ct).I, ct, pos))
		}
	case ct.IsFloat():
		return func(l, r Value) Value {
			if l.T != lt || r.T != rt {
				return general(l, r)
			}
			a, b := FloatValue(l.Float(), ct).F, FloatValue(r.Float(), ct).F
			return result(m.floatOp(op, a, b, ct, pos))
		}
	default:
		return func(l, r Value) Value {
			if l.T != lt || r.T != rt {
				return general(l, r)
			}
			a, b := ComplexValue(l.Complex(), ct), ComplexValue(r.Complex(), ct)
			return result(m.complexOp(op, a.Complex(), b.Complex(), ct, pos))
		}
	}
}

// applyBinary performs op on already-evaluated operands, producing a value
// of result type rt, with every conversion decided by the operands' types.
func (m *Machine) applyBinary(op minic.Kind, l, r Value, rt *minic.Type, pos *minic.Pos) Value {
	// Pointer arithmetic and comparisons.
	if l.Kind() == VPointer || r.Kind() == VPointer {
		return m.pointerOp(op, l, r, pos)
	}
	if isComparison(op) {
		return m.compare(op, l, r, pos)
	}
	// Usual arithmetic conversions to the result type.
	ct := minic.UsualArith(l.T, r.T)
	lc, err := Convert(l, ct)
	if err != nil {
		m.must(m.fault(pos, FaultBadCast, "%v", err))
	}
	rc, err := Convert(r, ct)
	if err != nil {
		m.must(m.fault(pos, FaultBadCast, "%v", err))
	}
	var out Value
	switch lc.Kind() {
	case VInt:
		out = m.intOp(op, lc.I, rc.I, ct, pos)
	case VFloat:
		out = m.floatOp(op, lc.F, rc.F, ct, pos)
	case VComplex:
		out = m.complexOp(op, lc.Complex(), rc.Complex(), ct, pos)
	default:
		m.must(m.fault(pos, FaultUnsupported, "binary %s on %s", op, lc.Type()))
	}
	if rt != nil && rt.IsArithmetic() {
		cv, err := Convert(out, rt)
		m.must(err)
		return cv
	}
	return out
}

func (m *Machine) intOp(op minic.Kind, a, b int64, t *minic.Type, pos *minic.Pos) Value {
	m.Counters.IntOps++
	switch op {
	case minic.Plus:
		return truncInt(a+b, t)
	case minic.Minus:
		return truncInt(a-b, t)
	case minic.Star:
		return truncInt(a*b, t)
	case minic.Slash:
		if b == 0 {
			m.must(m.fault(pos, FaultDivZero, "integer division by zero"))
		}
		return truncInt(a/b, t)
	case minic.Percent:
		if b == 0 {
			m.must(m.fault(pos, FaultDivZero, "integer modulo by zero"))
		}
		return truncInt(a%b, t)
	case minic.Shl:
		return truncInt(a<<uint(b&63), t)
	case minic.Shr:
		if t.Unsigned {
			return truncInt(int64(uint64(a)>>uint(b&63)), t)
		}
		return truncInt(a>>uint(b&63), t)
	case minic.Amp:
		return truncInt(a&b, t)
	case minic.Pipe:
		return truncInt(a|b, t)
	case minic.Caret:
		return truncInt(a^b, t)
	}
	m.must(m.fault(pos, FaultUnsupported, "int op %s", op))
	return Value{}
}

func (m *Machine) floatOp(op minic.Kind, a, b float64, t *minic.Type, pos *minic.Pos) Value {
	switch op {
	case minic.Plus:
		m.Counters.FloatOps++
		return FloatValue(a+b, t)
	case minic.Minus:
		m.Counters.FloatOps++
		return FloatValue(a-b, t)
	case minic.Star:
		m.Counters.FloatOps++
		return FloatValue(a*b, t)
	case minic.Slash:
		m.Counters.FloatDivs++
		return FloatValue(a/b, t)
	}
	m.must(m.fault(pos, FaultUnsupported, "float op %s", op))
	return Value{}
}

func (m *Machine) complexOp(op minic.Kind, a, b complex128, t *minic.Type, pos *minic.Pos) Value {
	switch op {
	case minic.Plus:
		m.Counters.FloatOps += 2
		return ComplexValue(a+b, t)
	case minic.Minus:
		m.Counters.FloatOps += 2
		return ComplexValue(a-b, t)
	case minic.Star:
		m.Counters.FloatOps += 6
		return ComplexValue(a*b, t)
	case minic.Slash:
		m.Counters.FloatOps += 6
		m.Counters.FloatDivs += 2
		return ComplexValue(a/b, t)
	}
	m.must(m.fault(pos, FaultUnsupported, "complex op %s", op))
	return Value{}
}

func (m *Machine) compare(op minic.Kind, l, r Value, pos *minic.Pos) Value {
	m.Counters.IntOps++
	lk, rk := l.Kind(), r.Kind()
	// Complex values compare only with == and !=.
	if lk == VComplex || rk == VComplex {
		eq := l.Complex() == r.Complex()
		switch op {
		case minic.EqEq:
			return boolValue(eq)
		case minic.NotEq:
			return boolValue(!eq)
		}
		m.must(m.fault(pos, FaultUnsupported, "ordered comparison of complex values"))
	}
	if lk == VFloat || rk == VFloat {
		a, b := l.Float(), r.Float()
		return boolValue(compareOrd(op, a < b, a > b, a == b))
	}
	a, b := l.Int(), r.Int()
	return boolValue(compareOrd(op, a < b, a > b, a == b))
}

func compareOrd(op minic.Kind, lt, gt, eq bool) bool {
	switch op {
	case minic.Lt:
		return lt
	case minic.Gt:
		return gt
	case minic.Le:
		return lt || eq
	case minic.Ge:
		return gt || eq
	case minic.EqEq:
		return eq
	case minic.NotEq:
		return !eq
	default:
		return false
	}
}

func (m *Machine) pointerOp(op minic.Kind, l, r Value, pos *minic.Pos) Value {
	m.Counters.IntOps++
	lp, rp := l.Kind() == VPointer, r.Kind() == VPointer
	switch op {
	case minic.Plus:
		if lp {
			return ptrAdd(l, r.Int())
		}
		return ptrAdd(r, l.Int())
	case minic.Minus:
		if lp && rp {
			if l.A != r.A {
				m.must(m.fault(pos, FaultBadPointerOp,
					"difference of pointers into different allocations"))
			}
			return LongValue((l.I - r.I) / int64(elemStep(l.ptrView())))
		}
		if lp {
			return ptrAdd(l, -r.Int())
		}
	case minic.EqEq, minic.NotEq:
		eq := pointerEq(l, r)
		return boolValue(eq == (op == minic.EqEq))
	case minic.Lt, minic.Gt, minic.Le, minic.Ge:
		if lp && rp {
			if l.A != r.A {
				m.must(m.fault(pos, FaultBadPointerOp,
					"ordered comparison of pointers into different allocations"))
			}
			a, b := l.I, r.I
			return boolValue(compareOrd(op, a < b, a > b, a == b))
		}
	}
	m.must(m.fault(pos, FaultBadPointerOp, "pointer op %s with %s and %s", op, l.Type(), r.Type()))
	return Value{}
}

func pointerEq(l, r Value) bool {
	var la, ra *Alloc
	var lo, ro int64
	if l.Kind() == VPointer {
		la, lo = l.A, l.I
	}
	if r.Kind() == VPointer {
		ra, ro = r.A, r.I
	}
	return la == ra && (la == nil || lo == ro)
}
