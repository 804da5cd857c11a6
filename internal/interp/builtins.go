package interp

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"

	"facc/internal/minic"
)

// builtin compiles a recognized library call. Arguments are evaluated
// (and converted to the parameter types) in order; the implementation is
// chosen here, once. The math functions of one or two arguments read them
// directly; any other call passes them on the machine's argument stack.
func (c *compiler) builtin(x *minic.CallExpr, pos *minic.Pos) evalFn {
	m, name := c.m, x.Builtin
	b := minic.Builtins[name]
	args := make([]evalFn, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.expr(a)
		if b != nil && !b.Variadic && i < len(b.Params) {
			v, pt, apos := args[i], b.Params[i], posOf(a)
			args[i] = func(fr *frame) Value { return m.convert(v(fr), pt, apos, name) }
		}
	}
	// Single-precision variants share implementations; the result is
	// rounded through float32 by FloatValue/ComplexValue.
	base := strings.TrimSuffix(name, "f")
	isF32 := strings.HasSuffix(name, "f") && base != "printf" && name != "fprintf" && name != "printf"
	rt := minic.Double
	crt := minic.ComplexDouble
	if isF32 {
		rt = minic.Float
		crt = minic.ComplexFloat
	}
	if fn, ok := math1[base]; ok && len(args) == 1 && isF32 == (name != base) {
		a := args[0]
		return func(fr *frame) Value {
			m.step(pos)
			v := a(fr)
			m.Counters.MathCalls++
			return FloatValue(fn(v.Float()), rt)
		}
	}
	if fn, ok := math2[base]; ok && len(args) == 2 {
		a0, a1 := args[0], args[1]
		return func(fr *frame) Value {
			m.step(pos)
			v0 := a0(fr)
			v1 := a1(fr)
			m.Counters.MathCalls++
			return FloatValue(fn(v0.Float(), v1.Float()), rt)
		}
	}
	if fn, ok := cmath1[base]; ok && len(args) == 1 {
		a := args[0]
		return func(fr *frame) Value {
			m.step(pos)
			v := a(fr)
			m.Counters.MathCalls += 2
			return ComplexValue(fn(v.Complex()), crt)
		}
	}
	if fn, ok := cmathReal[base]; ok && len(args) == 1 {
		a := args[0]
		return func(fr *frame) Value {
			m.step(pos)
			v := a(fr)
			m.Counters.MathCalls++
			return FloatValue(fn(v.Complex()), rt)
		}
	}
	impl := m.libcall(name, crt, pos)
	return func(fr *frame) Value {
		m.step(pos)
		base := len(m.args)
		for _, a := range args {
			m.args = append(m.args, a(fr))
		}
		v := impl(m.args[base:])
		m.args = m.args[:base]
		return v
	}
}

// libcall returns the implementation of a non-math library function.
func (m *Machine) libcall(name string, crt *minic.Type, pos *minic.Pos) func([]Value) Value {
	switch name {
	case "ldexp":
		return func(args []Value) Value {
			m.Counters.MathCalls++
			return FloatValue(math.Ldexp(args[0].Float(), int(args[1].Int())), minic.Double)
		}
	case "cpow":
		return func(args []Value) Value {
			m.Counters.MathCalls += 4
			return ComplexValue(cmplx.Pow(args[0].Complex(), args[1].Complex()), crt)
		}
	case "abs", "labs":
		mk := IntValue
		if name == "labs" {
			mk = LongValue
		}
		return func(args []Value) Value {
			m.Counters.IntOps++
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return mk(v)
		}
	case "malloc":
		return func(args []Value) Value { return m.builtinMalloc(args[0].Int(), pos) }
	case "calloc":
		return func(args []Value) Value { return m.builtinMalloc(args[0].Int()*args[1].Int(), pos) }
	case "realloc":
		return func(args []Value) Value { return m.builtinRealloc(args[0], args[1].Int(), pos) }
	case "free":
		return func(args []Value) Value {
			m.builtinFree(args[0], pos)
			return VoidValue()
		}
	case "memcpy", "memmove":
		return func(args []Value) Value { return m.builtinMemcpy(args[0], args[1], args[2].Int(), pos) }
	case "memset":
		return func(args []Value) Value { return m.builtinMemset(args[0], args[1].Int(), args[2].Int(), pos) }
	case "printf":
		return func(args []Value) Value { return m.builtinPrintf(args, pos) }
	case "fprintf":
		return func(args []Value) Value {
			if len(args) < 1 {
				return IntValue(0)
			}
			return m.builtinPrintf(args[1:], pos)
		}
	case "puts":
		return func(args []Value) Value {
			s := m.cString(args[0], pos)
			m.Out.WriteString(s)
			m.Out.WriteByte('\n')
			return IntValue(int64(len(s) + 1))
		}
	case "putchar":
		return func(args []Value) Value {
			m.Out.WriteByte(byte(args[0].Int()))
			return IntValue(args[0].Int())
		}
	case "exit":
		return func(args []Value) Value {
			m.exitCode = int(args[0].Int())
			m.must(m.fault(pos, FaultExit, "exit(%d)", m.exitCode))
			return Value{}
		}
	case "assert":
		return func(args []Value) Value {
			if args[0].IsZero() {
				m.must(m.fault(pos, FaultAssert, "assertion failed"))
			}
			return VoidValue()
		}
	}
	return func([]Value) Value {
		m.must(m.fault(pos, FaultUnsupported, "builtin %q not implemented", name))
		return Value{}
	}
}

var math1 = map[string]func(float64) float64{
	"sin": math.Sin, "cos": math.Cos, "tan": math.Tan,
	"asin": math.Asin, "acos": math.Acos, "atan": math.Atan,
	"sqrt": math.Sqrt, "exp": math.Exp, "log": math.Log,
	"log2": math.Log2, "log10": math.Log10, "fabs": math.Abs,
	"floor": math.Floor, "ceil": math.Ceil, "round": math.Round,
	"trunc": math.Trunc, "cbrt": math.Cbrt, "sinh": math.Sinh,
	"cosh": math.Cosh, "tanh": math.Tanh,
}

var math2 = map[string]func(float64, float64) float64{
	"pow": math.Pow, "atan2": math.Atan2, "fmod": math.Mod,
	"hypot": math.Hypot, "fmin": math.Min, "fmax": math.Max,
}

var cmath1 = map[string]func(complex128) complex128{
	"cexp": cexp, "csqrt": cmplx.Sqrt, "conj": cmplx.Conj,
}

// cexp is cmplx.Exp, bit for bit. The twiddle factors FFT code computes
// are cexp of an imaginary argument, where cmplx.Exp would scale
// Sincos's result by math.Exp(±0) = 1; that step is skipped.
func cexp(x complex128) complex128 {
	if real(x) == 0 {
		s, c := math.Sincos(imag(x))
		return complex(c, s)
	}
	return cmplx.Exp(x)
}

var cmathReal = map[string]func(complex128) float64{
	"creal": func(c complex128) float64 { return real(c) },
	"cimag": func(c complex128) float64 { return imag(c) },
	"cabs":  cmplx.Abs,
	"carg":  func(c complex128) float64 { return cmplx.Phase(c) },
}

func (m *Machine) builtinMalloc(size int64, pos *minic.Pos) Value {
	if size < 0 {
		m.must(m.fault(pos, FaultOutOfBounds, "malloc of negative size %d", size))
	}
	m.Counters.Allocs++
	m.nextAllocID++
	a := &Alloc{ID: m.nextAllocID, Name: fmt.Sprintf("malloc#%d", m.nextAllocID), RawBytes: int(size)}
	return Value{T: voidPtr, A: a}
}

func (m *Machine) builtinRealloc(old Value, size int64, pos *minic.Pos) Value {
	nv := m.builtinMalloc(size, pos)
	if old.Kind() == VPointer && old.A != nil {
		oa := old.A
		if oa.Freed {
			m.must(m.fault(pos, FaultUseAfterFree, "realloc of freed block"))
		}
		na := nv.A
		if oa.Cells != nil {
			na.ElemType = oa.ElemType
			n := len(oa.Cells)
			target := n
			if oa.ElemType != nil {
				if es := oa.ElemType.Sizeof(); es > 0 {
					target = int(size) / es * FlatSize(oa.ElemType)
				}
			}
			cells := make([]Value, target)
			leaves := FlatLeaves(oa.ElemType, nil)
			per := len(leaves)
			for i := range cells {
				if i < n {
					cells[i] = oa.Cells[i]
				} else if per > 0 {
					cells[i] = zeroValue(leaves[i%per])
				}
			}
			na.Cells = cells
			na.RawBytes = 0
		}
		oa.Freed = true
	}
	return nv
}

func (m *Machine) builtinFree(v Value, pos *minic.Pos) {
	if v.Kind() != VPointer {
		m.must(m.fault(pos, FaultBadPointerOp, "free of non-pointer"))
	}
	a := v.A
	if a == nil {
		return // free(NULL) is a no-op
	}
	if a.Freed {
		m.must(m.fault(pos, FaultDoubleFree, "double free of %s", a.Name))
	}
	if v.I != 0 {
		m.must(m.fault(pos, FaultBadPointerOp, "free of interior pointer into %s", a.Name))
	}
	a.Freed = true
}

// byteCount converts a byte count through a pointer viewing elem into a
// cell count, faulting on untyped pointers and partial elements.
func (m *Machine) byteCount(what string, elem *minic.Type, nbytes int64, pos *minic.Pos) int {
	if int(nbytes)%elem.Sizeof() != 0 {
		m.must(m.fault(pos, FaultBadPointerOp,
			"%s of %d bytes is not a multiple of sizeof(%s)", what, nbytes, elem))
	}
	return int(nbytes) / elem.Sizeof() * FlatSize(elem)
}

func untyped(t *minic.Type) bool {
	return t == nil || t.Kind == minic.TVoid || t.Sizeof() == 0
}

func (m *Machine) builtinMemcpy(dst, src Value, nbytes int64, pos *minic.Pos) Value {
	if dst.Kind() != VPointer || src.Kind() != VPointer {
		m.must(m.fault(pos, FaultBadPointerOp, "memcpy of non-pointers"))
	}
	// Use the source view to size the copy; fall back to the destination.
	elem := src.ptrView()
	if elem == nil || elem.Kind == minic.TVoid {
		elem = dst.ptrView()
	}
	if untyped(elem) {
		m.must(m.fault(pos, FaultBadPointerOp, "memcpy through untyped pointers"))
	}
	count := m.byteCount("memcpy", elem, nbytes, pos)
	so, do := int(src.I), int(dst.I)
	m.must(m.checkAccess(src.A, so, count, elem, pos))
	m.must(m.checkAccess(dst.A, do, count, elem, pos))
	m.Counters.Loads += int64(count)
	m.Counters.Stores += int64(count)
	tmp := make([]Value, count)
	copy(tmp, src.A.Cells[so:so+count])
	for i, v := range tmp {
		cv, err := Convert(v, dst.A.Cells[do+i].Type())
		if err != nil {
			m.must(m.fault(pos, FaultBadCast, "memcpy: %v", err))
		}
		dst.A.Cells[do+i] = cv
	}
	return dst
}

func (m *Machine) builtinMemset(dst Value, val, nbytes int64, pos *minic.Pos) Value {
	if dst.Kind() != VPointer {
		m.must(m.fault(pos, FaultBadPointerOp, "memset of non-pointer"))
	}
	if val != 0 {
		m.must(m.fault(pos, FaultUnsupported, "memset with non-zero value %d", val))
	}
	elem := dst.ptrView()
	if untyped(elem) {
		m.must(m.fault(pos, FaultBadPointerOp, "memset through untyped pointer"))
	}
	count := m.byteCount("memset", elem, nbytes, pos)
	off := int(dst.I)
	m.must(m.checkAccess(dst.A, off, count, elem, pos))
	m.Counters.Stores += int64(count)
	for i := off; i < off+count; i++ {
		dst.A.Cells[i] = zeroValue(dst.A.Cells[i].Type())
	}
	return dst
}

// cString reads a NUL-terminated string through a char pointer.
func (m *Machine) cString(v Value, pos *minic.Pos) string {
	if v.Kind() != VPointer {
		m.must(m.fault(pos, FaultBadPointerOp, "expected string pointer"))
	}
	var b strings.Builder
	for off := int(v.I); ; off++ {
		cv := m.load(v.A, off, minic.Char, pos)
		if cv.I == 0 {
			return b.String()
		}
		b.WriteByte(byte(cv.I))
		if b.Len() > 1<<20 {
			m.must(m.fault(pos, FaultOutOfBounds, "unterminated string"))
		}
	}
}

// builtinPrintf implements the printf subset the corpus uses:
// %d %i %u %ld %lu %f %lf %g %e %c %s %x %% with optional width/precision.
func (m *Machine) builtinPrintf(args []Value, pos *minic.Pos) Value {
	if len(args) == 0 {
		return IntValue(0)
	}
	format := m.cString(args[0], pos)
	rest := args[1:]
	argi := 0
	nextArg := func() (Value, bool) {
		if argi < len(rest) {
			v := rest[argi]
			argi++
			return v, true
		}
		return Value{}, false
	}
	var out strings.Builder
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			out.WriteByte(c)
			i++
			continue
		}
		// Collect the directive.
		j := i + 1
		for j < len(format) && strings.ContainsRune("-+ 0123456789.*lhz", rune(format[j])) {
			j++
		}
		if j >= len(format) {
			out.WriteByte('%')
			break
		}
		verb := format[j]
		spec := format[i : j+1]
		goSpec := strings.Map(func(r rune) rune {
			if r == 'l' || r == 'h' || r == 'z' {
				return -1
			}
			return r
		}, spec)
		switch verb {
		case '%':
			out.WriteByte('%')
		case 'd', 'i':
			v, _ := nextArg()
			fmt.Fprintf(&out, strings.Replace(goSpec, string(verb), "d", 1), v.Int())
		case 'u', 'x', 'X', 'o':
			v, _ := nextArg()
			gverb := verb
			if verb == 'u' {
				gverb = 'd'
			}
			fmt.Fprintf(&out, strings.Replace(goSpec, string(verb), string(gverb), 1), uint64(v.Int()))
		case 'f', 'F', 'e', 'E', 'g', 'G':
			v, _ := nextArg()
			fmt.Fprintf(&out, goSpec, v.Float())
		case 'c':
			v, _ := nextArg()
			out.WriteByte(byte(v.Int()))
		case 's':
			v, ok := nextArg()
			if ok {
				s := m.cString(v, pos)
				fmt.Fprintf(&out, strings.Replace(goSpec, "s", "s", 1), s)
			}
		case 'p':
			v, _ := nextArg()
			fmt.Fprintf(&out, "%#x", v.Int())
		default:
			out.WriteString(spec)
		}
		i = j + 1
	}
	m.Out.WriteString(out.String())
	return IntValue(int64(out.Len()))
}

// Output returns everything the program printed so far.
func (m *Machine) Output() string { return m.Out.String() }

// ExitCode returns the code passed to exit(), if the program exited.
func (m *Machine) ExitCode() int { return m.exitCode }
