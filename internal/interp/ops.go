package interp

import (
	"math"

	"facc/internal/minic"
)

// Binary operators compile in two parts. The node's closure takes its
// step and evaluates the operands, reading slot locals and constants
// inline; a kernel specialised for the operator and the usual-arithmetic
// type then converts and combines them with every decision made at
// compile time. A kernel serves operands of exactly their static types;
// any other operand (a cell punned through a pointer of another type,
// say) takes applyBinary, the general path, which decides everything
// from the values' own types.

func (c *compiler) binary(x *minic.BinaryExpr, pos *minic.Pos) evalFn {
	if x.Op == minic.AndAnd || x.Op == minic.OrOr {
		// Short-circuit operators evaluate lazily, as conditions do.
		t := c.truth(x)
		return func(fr *frame) Value { return boolValue(t(fr)) }
	}
	return pair(c, pos, x.L, x.R, c.arith(x.Op, x.L.ResultType(), x.R.ResultType(), x.ResultType(), pos))
}

// condition compiles a comparison used as a condition: the kernel's
// verdict is the branch, with no int value built and tested.
func (c *compiler) condition(x *minic.BinaryExpr, pos *minic.Pos) func(*frame) bool {
	m, op := c.m, x.Op
	lt, rt, res := x.L.ResultType(), x.R.ResultType(), x.ResultType()
	if !lt.IsInteger() || !rt.IsInteger() {
		k := c.arith(op, lt, rt, res, pos)
		return pair(c, pos, x.L, x.R, func(a, b Value) bool { return k(a, b).I != 0 })
	}
	mask := cmpMask(op)
	return pair(c, pos, x.L, x.R, func(a, b Value) bool {
		if a.T != lt || b.T != rt {
			return !m.applyBinary(op, a, b, res, pos).IsZero()
		}
		m.Counters.IntOps++
		return mask>>order(a.I, b.I)&1 != 0
	})
}

// An operand is how a node reads one of its operands: a local in frame
// slot slot, a constant k (when x is nil and slot < 0), or any other
// expression through its closure x.
type operand struct {
	x    evalFn
	pos  *minic.Pos
	slot int
	k    Value
	name string
}

// operand compiles e for reading by its parent node.
func (c *compiler) operand(e minic.Expr) *operand {
	o := &operand{pos: posOf(e), slot: -1}
	switch x := e.(type) {
	case *minic.IntLitExpr:
		o.k = Value{T: x.ResultType(), I: x.Value}
	case *minic.FloatLitExpr:
		o.k = FloatValue(x.Value, x.ResultType())
	default:
		if so := c.slotOperand(e); so != nil {
			return so
		}
		o.x = c.expr(e)
	}
	return o
}

// slotOperand returns the operand that reads the scalar local e names
// from its frame slot, or nil when e is anything else.
func (c *compiler) slotOperand(e minic.Expr) *operand {
	if x, ok := e.(*minic.IdentExpr); ok {
		if l := c.locals[x.Def]; l != nil && !l.alloc && x.Def.Type.Kind != minic.TStruct {
			return &operand{pos: posOf(e), slot: l.slot, name: x.Name}
		}
	}
	return nil
}

// pair compiles a node that takes its step, evaluates its two operands in
// order and combines them with k. The hot shapes read a slot on the left,
// and a slot or a constant on the right, inline, as read's closures do.
func pair[R any](c *compiler, pos *minic.Pos, le, re minic.Expr, k func(a, b Value) R) func(*frame) R {
	m := c.m
	lo, ro := c.operand(le), c.operand(re)
	ls, rs := lo.slot, ro.slot
	if ls >= 0 && (rs >= 0 || ro.x == nil) {
		return func(fr *frame) R {
			m.step(pos)
			m.step(lo.pos)
			a := m.loadSlot(fr, lo)
			m.step(ro.pos)
			b := ro.k
			if rs >= 0 {
				b = m.loadSlot(fr, ro)
			}
			return k(a, b)
		}
	}
	l, r := c.read(lo), c.read(ro)
	return func(fr *frame) R {
		m.step(pos)
		a := l(fr)
		return k(a, r(fr))
	}
}

// read returns the closure that reads o as its own node.
func (c *compiler) read(o *operand) evalFn {
	m := c.m
	switch {
	case o.x != nil:
		return o.x
	case o.slot >= 0:
		return func(fr *frame) Value {
			m.step(o.pos)
			return m.loadSlot(fr, o)
		}
	}
	return func(*frame) Value {
		m.step(o.pos)
		return o.k
	}
}

// loadSlot reads the local in o's frame slot as a load through its
// address would: a cell with no storage faults, and the read counts as a
// load. The caller takes the node's step. Every inline slot read goes
// through here; it fits the inliner's budget with one cost to spare, so
// the fault stays out of line.
func (m *Machine) loadSlot(fr *frame, o *operand) (v Value) {
	if v = fr.Cells[o.slot]; v.T == nil {
		o.noStorage(m)
	}
	m.Counters.Loads++
	return
}

// noStorage faults the read of o, which has no storage.
//
//go:noinline
func (o *operand) noStorage(m *Machine) { m.noStorage(o.pos, o.name) }

func isComparison(op minic.Kind) bool {
	switch op {
	case minic.Lt, minic.Gt, minic.Le, minic.Ge, minic.EqEq, minic.NotEq:
		return true
	}
	return false
}

// cmpMask encodes comparison op as the bits order selects: bit 0 holds
// its verdict for less, bit 1 for equal, bit 2 for greater and bit 3 for
// unordered (a NaN operand).
func cmpMask(op minic.Kind) int64 {
	switch op {
	case minic.Lt:
		return 0b0001
	case minic.Gt:
		return 0b0100
	case minic.Le:
		return 0b0011
	case minic.Ge:
		return 0b0110
	case minic.EqEq:
		return 0b0010
	default: // NotEq
		return 0b1101
	}
}

// order returns the bit of a comparison mask that a against b selects.
func order[T int64 | float64](a, b T) int64 {
	switch {
	case a < b:
		return 0
	case a == b:
		return 1
	case a > b:
		return 2
	}
	return 3
}

// arith compiles op on operands of static types lt and rt with result
// type res into a kernel. Arithmetic operators compute in the usual
// arithmetic type ct; a compound assignment's store converts that to the
// target's type, as the general path's conversion to res would.
func (c *compiler) arith(op minic.Kind, lt, rt, res *minic.Type, pos *minic.Pos) func(a, b Value) Value {
	m := c.m
	general := func(a, b Value) Value { return m.applyBinary(op, a, b, res, pos) }
	if !lt.IsArithmetic() || !rt.IsArithmetic() {
		return general
	}
	ct := minic.UsualArith(lt, rt)
	switch {
	case isComparison(op) && (lt.IsComplex() || rt.IsComplex()):
		return general
	case isComparison(op) && lt.IsInteger() && rt.IsInteger():
		mask := cmpMask(op)
		return func(a, b Value) Value {
			if a.T != lt || b.T != rt {
				return general(a, b)
			}
			m.Counters.IntOps++
			return IntValue(mask >> order(a.I, b.I) & 1)
		}
	case isComparison(op):
		mask := cmpMask(op)
		li, ri := lt.IsInteger(), rt.IsInteger()
		return func(a, b Value) Value {
			if a.T != lt || b.T != rt {
				return general(a, b)
			}
			m.Counters.IntOps++
			return IntValue(mask >> order(realOf(a, li), realOf(b, ri)) & 1)
		}
	case ct.IsInteger():
		return c.intArith(op, lt, rt, ct, pos, general)
	case ct.IsFloat():
		return c.floatArith(op, lt, rt, ct, pos, general)
	default:
		return c.complexArith(op, lt, rt, ct, pos, general)
	}
}

// intArith compiles an integer operator in ct. Addition, subtraction and
// multiplication need no conversion of their operands to ct (truncating
// the result suffices); the other operators convert them first.
func (c *compiler) intArith(op minic.Kind, lt, rt, ct *minic.Type, pos *minic.Pos, general func(a, b Value) Value) func(a, b Value) Value {
	m := c.m
	switch op {
	case minic.Plus:
		return func(a, b Value) Value {
			if a.T != lt || b.T != rt {
				return general(a, b)
			}
			m.Counters.IntOps++
			return truncInt(a.I+b.I, ct)
		}
	case minic.Minus:
		return func(a, b Value) Value {
			if a.T != lt || b.T != rt {
				return general(a, b)
			}
			m.Counters.IntOps++
			return truncInt(a.I-b.I, ct)
		}
	case minic.Star:
		return func(a, b Value) Value {
			if a.T != lt || b.T != rt {
				return general(a, b)
			}
			m.Counters.IntOps++
			return truncInt(a.I*b.I, ct)
		}
	}
	lc, rc := lt != ct, rt != ct
	return func(a, b Value) Value {
		if a.T != lt || b.T != rt {
			return general(a, b)
		}
		x, y := a.I, b.I
		if lc {
			x = truncInt(x, ct).I
		}
		if rc {
			y = truncInt(y, ct).I
		}
		return m.intOp(op, x, y, ct, pos)
	}
}

// realOf reads an operand of a real floating operation: its float, or
// its integer widened when the operand's static type is an integer.
func realOf(v Value, integer bool) float64 {
	if integer {
		return float64(v.I)
	}
	return v.F
}

// floatArith compiles a real floating operator in ct (float values and
// results round through float32).
func (c *compiler) floatArith(op minic.Kind, lt, rt, ct *minic.Type, pos *minic.Pos, general func(a, b Value) Value) func(a, b Value) Value {
	m := c.m
	li, ri, single := lt.IsInteger(), rt.IsInteger(), ct.Kind == minic.TFloat
	if !li && !ri && !single {
		// Two doubles, the common case: nothing to convert or round.
		switch op {
		case minic.Plus:
			return func(a, b Value) Value {
				if a.T != lt || b.T != rt {
					return general(a, b)
				}
				m.Counters.FloatOps++
				return Value{T: ct, F: a.F + b.F}
			}
		case minic.Minus:
			return func(a, b Value) Value {
				if a.T != lt || b.T != rt {
					return general(a, b)
				}
				m.Counters.FloatOps++
				return Value{T: ct, F: a.F - b.F}
			}
		case minic.Star:
			return func(a, b Value) Value {
				if a.T != lt || b.T != rt {
					return general(a, b)
				}
				m.Counters.FloatOps++
				return Value{T: ct, F: a.F * b.F}
			}
		case minic.Slash:
			return func(a, b Value) Value {
				if a.T != lt || b.T != rt {
					return general(a, b)
				}
				m.Counters.FloatDivs++
				return Value{T: ct, F: a.F / b.F}
			}
		}
	}
	return func(a, b Value) Value {
		if a.T != lt || b.T != rt {
			return general(a, b)
		}
		x, y := realOf(a, li), realOf(b, ri)
		if single {
			x, y = float64(float32(x)), float64(float32(y))
		}
		return m.floatOp(op, x, y, ct, pos)
	}
}

// complexOf reads an operand of a complex operation by its static type.
func complexOf(v Value, t *minic.Type) complex128 {
	switch {
	case t.IsComplex():
		return complex(v.F, math.Float64frombits(uint64(v.I)))
	case t.IsInteger():
		return complex(float64(v.I), 0)
	}
	return complex(v.F, 0)
}

// complexArith compiles a complex operator in ct.
func (c *compiler) complexArith(op minic.Kind, lt, rt, ct *minic.Type, pos *minic.Pos, general func(a, b Value) Value) func(a, b Value) Value {
	m := c.m
	single := ct.Kind == minic.TComplexFloat
	if !single {
		switch op {
		case minic.Plus:
			return func(a, b Value) Value {
				if a.T != lt || b.T != rt {
					return general(a, b)
				}
				m.Counters.FloatOps += 2
				return ComplexValue(complexOf(a, lt)+complexOf(b, rt), ct)
			}
		case minic.Minus:
			return func(a, b Value) Value {
				if a.T != lt || b.T != rt {
					return general(a, b)
				}
				m.Counters.FloatOps += 2
				return ComplexValue(complexOf(a, lt)-complexOf(b, rt), ct)
			}
		case minic.Star:
			return func(a, b Value) Value {
				if a.T != lt || b.T != rt {
					return general(a, b)
				}
				m.Counters.FloatOps += 6
				return ComplexValue(complexOf(a, lt)*complexOf(b, rt), ct)
			}
		}
	}
	return func(a, b Value) Value {
		if a.T != lt || b.T != rt {
			return general(a, b)
		}
		x, y := complexOf(a, lt), complexOf(b, rt)
		if single {
			x, y = complex128(complex64(x)), complex128(complex64(y))
		}
		return m.complexOp(op, x, y, ct, pos)
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
