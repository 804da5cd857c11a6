package interp

import (
	"facc/internal/minic"
)

// fail compiles a node that faults when it is reached.
func (c *compiler) fail(pos *minic.Pos, kind FaultKind, format string, args ...any) evalFn {
	m := c.m
	return func(*frame) Value {
		m.step(pos)
		m.must(m.fault(pos, kind, format, args...))
		return Value{}
	}
}

// truth compiles e as a condition.
func (c *compiler) truth(e minic.Expr) func(*frame) bool {
	x := c.expr(e)
	return func(fr *frame) bool { return !x(fr).IsZero() }
}

// expr compiles e as an rvalue.
func (c *compiler) expr(e minic.Expr) evalFn {
	m, pos := c.m, posOf(e)
	switch x := e.(type) {
	case *minic.IntLitExpr:
		v := Value{T: x.ResultType(), I: x.Value}
		return func(*frame) Value {
			m.step(pos)
			return v
		}
	case *minic.FloatLitExpr:
		v := FloatValue(x.Value, x.ResultType())
		return func(*frame) Value {
			m.step(pos)
			return v
		}
	case *minic.ImaginaryLitExpr:
		v := ComplexValue(complex(0, 1), x.ResultType())
		return func(*frame) Value {
			m.step(pos)
			return v
		}
	case *minic.StringLitExpr:
		pt := minic.PointerTo(minic.Char)
		leaves := []*minic.Type{minic.Char}
		str := x.Value
		return func(*frame) Value {
			m.step(pos)
			a := m.newAlloc("string", minic.Char, leaves, len(str)+1)
			for i := 0; i < len(str); i++ {
				a.Cells[i].I = int64(str[i])
			}
			return Value{T: pt, A: a}
		}
	case *minic.IdentExpr:
		return c.ident(x, pos)
	case *minic.UnaryExpr:
		return c.unary(x, pos)
	case *minic.BinaryExpr:
		return c.binary(x, pos)
	case *minic.AssignExpr:
		return c.assign(x, pos)
	case *minic.CondExpr:
		cond, then, els := c.truth(x.Cond), c.expr(x.Then), c.expr(x.Else)
		rt := x.ResultType()
		arith := rt.IsArithmetic()
		return func(fr *frame) Value {
			m.step(pos)
			t := cond(fr)
			m.Counters.Branches++
			var v Value
			if t {
				v = then(fr)
			} else {
				v = els(fr)
			}
			if arith {
				cv, err := Convert(v, rt)
				m.must(err)
				return cv
			}
			return v
		}
	case *minic.CallExpr:
		if x.Builtin != "" {
			return c.builtin(x, pos)
		}
		return c.call(x, pos)
	case *minic.IndexExpr:
		addr, elem := c.addr(x)
		return c.load(pos, addr, elem)
	case *minic.MemberExpr:
		if call, ok := x.X.(*minic.CallExpr); ok && !x.Arrow {
			// Struct rvalues that have no address (function results)
			// are sliced directly; everything else goes through memory.
			fn := c.expr(call)
			off := int64(fieldOffset(call.ResultType(), x.FieldIndex))
			ft := x.ResultType()
			if ft.Kind == minic.TStruct {
				return func(fr *frame) Value {
					m.step(pos)
					v := fn(fr)
					return Value{T: ft, A: v.A, I: v.I + off}
				}
			}
			return func(fr *frame) Value {
				m.step(pos)
				v := fn(fr)
				return v.A.Cells[v.I+off]
			}
		}
		addr, elem := c.addr(x)
		return c.load(pos, addr, elem)
	case *minic.CastExpr:
		v, to := c.expr(x.X), x.To.Decay()
		return func(fr *frame) Value {
			m.step(pos)
			cv, err := Convert(v(fr), to)
			if err != nil {
				m.must(m.fault(pos, FaultBadCast, "cast: %v", err))
			}
			return cv
		}
	case *minic.SizeofExpr:
		t := x.OfType
		if t == nil {
			t = x.X.ResultType()
		}
		size := LongValue(int64(t.Sizeof()))
		if size.I == 0 && t.Kind == minic.TArray && t.ArrayLenExpr != nil {
			n, es := c.expr(t.ArrayLenExpr), t.Elem.Sizeof()
			return func(fr *frame) Value {
				m.step(pos)
				return LongValue(int64(int(n(fr).Int()) * es))
			}
		}
		return func(*frame) Value {
			m.step(pos)
			return size
		}
	case *minic.CommaExpr:
		l, r := c.expr(x.L), c.expr(x.R)
		return func(fr *frame) Value {
			m.step(pos)
			l(fr)
			return r(fr)
		}
	default:
		return c.fail(pos, FaultUnsupported, "expression %T", e)
	}
}

// ident compiles reading a variable.
func (c *compiler) ident(x *minic.IdentExpr, pos *minic.Pos) evalFn {
	m := c.m
	if x.Def == nil {
		if x.Name == "stderr" || x.Name == "stdout" || x.Name == "stdin" {
			null := Value{T: voidPtr, F: viewNone}
			return func(*frame) Value {
				m.step(pos)
				return null
			}
		}
		return c.fail(pos, FaultUnsupported, "cannot evaluate function %q as a value", x.Name)
	}
	if l := c.locals[x.Def]; l != nil && !l.alloc && x.Def.Type.Kind != minic.TStruct {
		// A local in a frame slot: the load C would do, without the
		// allocation behind it.
		slot := l.slot
		return func(fr *frame) Value {
			m.step(pos)
			v := fr.Cells[slot]
			if v.T == nil {
				m.noStorage(pos, x.Name)
			}
			m.Counters.Loads++
			return v
		}
	}
	addr, elem := c.addr(x)
	return c.load(pos, addr, elem)
}

func (m *Machine) noStorage(pos *minic.Pos, name string) {
	m.must(m.fault(pos, FaultUnsupported, "no storage for %q", name))
}

// load compiles reading an object of type t at an address, decaying
// arrays to pointers. A struct is read as a reference to its cells.
func (c *compiler) load(pos *minic.Pos, addr addrFn, t *minic.Type) evalFn {
	m := c.m
	switch t.Kind {
	case minic.TArray:
		// Arrays decay to a pointer to their first element.
		pt := minic.PointerTo(t.Elem)
		return func(fr *frame) Value {
			m.step(pos)
			a, off := addr(fr)
			return Value{T: pt, A: a, I: int64(off)}
		}
	case minic.TStruct:
		n := FlatSize(t)
		return func(fr *frame) Value {
			m.step(pos)
			a, off := addr(fr)
			m.access(a, off, n, t, pos)
			m.Counters.Loads += int64(n)
			return Value{T: t, A: a, I: int64(off)}
		}
	default:
		return func(fr *frame) Value {
			m.step(pos)
			a, off := addr(fr)
			return m.load(a, off, t, pos)
		}
	}
}

// addr compiles the address an lvalue designates and returns the type it
// is accessed as. Computing an address takes no step of its own.
func (c *compiler) addr(e minic.Expr) (addrFn, *minic.Type) {
	m, pos := c.m, posOf(e)
	switch x := e.(type) {
	case *minic.IdentExpr:
		return c.varAddr(x, pos), x.ResultType()
	case *minic.UnaryExpr:
		if x.Op != minic.Star {
			break
		}
		v := c.expr(x.X)
		return func(fr *frame) (*Alloc, int) {
			p := v(fr)
			if p.Kind() != VPointer {
				m.must(m.fault(pos, FaultBadPointerOp, "dereference of non-pointer"))
			}
			return p.A, int(p.I)
		}, x.ResultType()
	case *minic.IndexExpr:
		base, index := c.expr(x.X), c.expr(x.Index)
		elem := x.ResultType()
		step := FlatSize(elem)
		var size func(*frame) int
		if step == 0 {
			// VLA row: compute the dynamic flat size.
			size = c.dynFlatSize(elem, pos)
		}
		return func(fr *frame) (*Alloc, int) {
			b := base(fr)
			if b.Kind() != VPointer {
				m.must(m.fault(pos, FaultBadPointerOp, "index of non-pointer value"))
			}
			i := index(fr)
			m.Counters.IntOps++
			s := step
			if s == 0 {
				s = size(fr)
			}
			return b.A, int(b.I) + int(i.Int())*s
		}, elem
	case *minic.MemberExpr:
		if x.Arrow {
			v := c.expr(x.X)
			off := fieldOffset(x.X.ResultType().Decay().Elem, x.FieldIndex)
			return func(fr *frame) (*Alloc, int) {
				p := v(fr)
				if p.Kind() != VPointer {
					m.must(m.fault(pos, FaultBadPointerOp, "-> on non-pointer"))
				}
				return p.A, int(p.I) + off
			}, x.ResultType()
		}
		base, _ := c.addr(x.X)
		off := fieldOffset(x.X.ResultType(), x.FieldIndex)
		return func(fr *frame) (*Alloc, int) {
			a, o := base(fr)
			return a, o + off
		}, x.ResultType()
	}
	return func(*frame) (*Alloc, int) {
		m.must(m.fault(pos, FaultUnsupported, "expression %T is not an lvalue", e))
		return nil, 0
	}, e.ResultType()
}

// lvalueRoot returns the variable an lvalue is part of, if its address
// is a fixed offset into that variable.
func lvalueRoot(e minic.Expr) *minic.VarDecl {
	switch x := e.(type) {
	case *minic.IdentExpr:
		return x.Def
	case *minic.MemberExpr:
		if !x.Arrow {
			return lvalueRoot(x.X)
		}
	}
	return nil
}

// varAddr compiles the storage of a named variable.
func (c *compiler) varAddr(x *minic.IdentExpr, pos *minic.Pos) addrFn {
	m := c.m
	if l := c.locals[x.Def]; l != nil {
		slot := l.slot
		if l.alloc {
			return func(fr *frame) (*Alloc, int) {
				a := fr.Cells[slot].A
				if a == nil {
					m.noStorage(pos, x.Name)
				}
				return a, 0
			}
		}
		return func(fr *frame) (*Alloc, int) {
			if fr.Cells[slot].T == nil {
				m.noStorage(pos, x.Name)
			}
			return &fr.Alloc, slot
		}
	}
	if x.Def != nil && (x.Def.Global || x.Def.Storage == minic.SCStatic) {
		s := m.staticFor(x.Def)
		return func(*frame) (*Alloc, int) {
			if s.a == nil {
				m.noStorage(pos, x.Name)
			}
			return s.a, 0
		}
	}
	return func(*frame) (*Alloc, int) {
		m.noStorage(pos, x.Name)
		return nil, 0
	}
}

// dynFlatSize compiles the flat size of a type whose array lengths are
// dynamic expressions (VLA rows).
func (c *compiler) dynFlatSize(t *minic.Type, pos *minic.Pos) func(*frame) int {
	m := c.m
	if s := FlatSize(t); s > 0 {
		return func(*frame) int { return s }
	}
	if t.Kind == minic.TArray && t.ArrayLenExpr != nil {
		n, inner := c.expr(t.ArrayLenExpr), c.dynFlatSize(t.Elem, pos)
		return func(fr *frame) int {
			len := int(n(fr).Int())
			return len * inner(fr)
		}
	}
	return func(*frame) int {
		m.must(m.fault(pos, FaultUnsupported, "cannot size type %s dynamically", t))
		return 0
	}
}

func (c *compiler) unary(x *minic.UnaryExpr, pos *minic.Pos) evalFn {
	m, rt := c.m, x.ResultType()
	switch x.Op {
	case minic.Amp:
		if l := c.locals[lvalueRoot(x.X)]; l != nil && !l.alloc {
			// Only an & that addressTaken cannot see, inside a type's
			// array length, gets here.
			return c.fail(pos, FaultUnsupported, "address of a local taken inside a type")
		}
		addr, _ := c.addr(x.X)
		return func(fr *frame) Value {
			m.step(pos)
			a, off := addr(fr)
			return Value{T: rt, A: a, I: int64(off)}
		}
	case minic.Star:
		addr, elem := c.addr(x)
		return c.load(pos, addr, elem)
	case minic.PlusPlus, minic.MinusMinus:
		addr, elem := c.addr(x.X)
		delta := int64(1)
		if x.Op == minic.MinusMinus {
			delta = -1
		}
		post := x.Post
		return func(fr *frame) Value {
			m.step(pos)
			a, off := addr(fr)
			old := m.load(a, off, elem, pos)
			var nv Value
			switch old.Kind() {
			case VInt:
				m.Counters.IntOps++
				nv = truncInt(old.I+delta, old.T)
			case VFloat:
				m.Counters.FloatOps++
				nv = FloatValue(old.F+float64(delta), old.T)
			case VPointer:
				m.Counters.IntOps++
				nv = ptrAdd(old, delta)
			default:
				m.must(m.fault(pos, FaultUnsupported, "%s on %s", x.Op, old.Type()))
			}
			m.store(a, off, nv, elem, pos)
			if post {
				return old
			}
			return nv
		}
	}
	v := c.expr(x.X)
	switch x.Op {
	case minic.Minus:
		return func(fr *frame) Value {
			m.step(pos)
			cv, err := Convert(v(fr), rt)
			if err != nil {
				m.must(m.fault(pos, FaultBadCast, "%v", err))
			}
			switch cv.Kind() {
			case VInt:
				m.Counters.IntOps++
				return truncInt(-cv.I, cv.T)
			case VFloat:
				m.Counters.FloatOps++
				return FloatValue(-cv.F, cv.T)
			case VComplex:
				m.Counters.FloatOps += 2
				return ComplexValue(-cv.Complex(), cv.T)
			}
			m.must(m.fault(pos, FaultUnsupported, "unary %s", x.Op))
			return Value{}
		}
	case minic.Plus:
		return func(fr *frame) Value {
			m.step(pos)
			cv, err := Convert(v(fr), rt)
			m.must(err)
			return cv
		}
	case minic.Not:
		return func(fr *frame) Value {
			m.step(pos)
			z := v(fr).IsZero()
			m.Counters.IntOps++
			return boolValue(z)
		}
	case minic.Tilde:
		return func(fr *frame) Value {
			m.step(pos)
			i := v(fr).Int()
			m.Counters.IntOps++
			return truncInt(^i, rt)
		}
	}
	return func(fr *frame) Value {
		m.step(pos)
		v(fr)
		m.must(m.fault(pos, FaultUnsupported, "unary %s", x.Op))
		return Value{}
	}
}

func (c *compiler) assign(x *minic.AssignExpr, pos *minic.Pos) evalFn {
	m := c.m
	addr, elem := c.addr(x.L)
	r := c.expr(x.R)
	lt := x.L.ResultType()
	if lt.Kind == minic.TStruct {
		n := FlatSize(lt)
		return func(fr *frame) Value {
			m.step(pos)
			a, off := addr(fr)
			v := r(fr)
			m.copyCells(a, off, v, n, lt, pos)
			return Value{T: v.T, A: a, I: int64(off)}
		}
	}
	name := ""
	if id, ok := x.L.(*minic.IdentExpr); ok {
		name = id.Name
	}
	observe := func(v Value) {
		if name != "" && m.Observe != nil {
			m.Observe(name, v)
		}
	}
	if x.Op == minic.Assign {
		return func(fr *frame) Value {
			m.step(pos)
			a, off := addr(fr)
			nv := m.store(a, off, r(fr), elem, pos)
			observe(nv)
			return nv
		}
	}
	op := compoundOp(x.Op)
	apply := binaryOp(m, op, lt, x.R.ResultType(), lt.Decay(), pos)
	return func(fr *frame) Value {
		m.step(pos)
		a, off := addr(fr)
		rv := r(fr)
		old := m.load(a, off, elem, pos)
		nv := m.store(a, off, apply(old, rv), elem, pos)
		observe(nv)
		return nv
	}
}

func compoundOp(k minic.Kind) minic.Kind {
	switch k {
	case minic.PlusAssign:
		return minic.Plus
	case minic.MinusAssign:
		return minic.Minus
	case minic.StarAssign:
		return minic.Star
	case minic.SlashAssign:
		return minic.Slash
	case minic.PercentAssign:
		return minic.Percent
	case minic.AmpAssign:
		return minic.Amp
	case minic.PipeAssign:
		return minic.Pipe
	case minic.CaretAssign:
		return minic.Caret
	case minic.ShlAssign:
		return minic.Shl
	case minic.ShrAssign:
		return minic.Shr
	default:
		return k
	}
}

func (c *compiler) call(x *minic.CallExpr, pos *minic.Pos) evalFn {
	m := c.m
	id, ok := x.Fun.(*minic.IdentExpr)
	if !ok || id.Func == nil {
		return c.fail(pos, FaultUnsupported, "indirect calls are not supported")
	}
	cf := m.funcs[id.Func.Name]
	if cf == nil || cf.decl.Body == nil {
		return c.fail(pos, FaultUnsupported, "call to undefined function %q", id.Func.Name)
	}
	args := make([]evalFn, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.expr(a)
	}
	return func(fr *frame) Value {
		m.step(pos)
		base := len(m.args)
		for _, a := range args {
			m.args = append(m.args, snapshot(a(fr)))
		}
		return m.invoke(cf, base)
	}
}

// ptrAdd advances a pointer value by delta elements of its view.
func ptrAdd(p Value, delta int64) Value {
	if p.A == nil {
		return p
	}
	p.I += delta * int64(elemStep(p.ptrView()))
	return p
}

func boolValue(b bool) Value {
	if b {
		return IntValue(1)
	}
	return IntValue(0)
}
