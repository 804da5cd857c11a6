package interp

import (
	"fmt"

	"facc/internal/minic"
)

// The compiler turns each checked function into a tree of Go closures,
// once per Machine. Every static fact a node needs — decayed and pointer
// types, the usual-arithmetic type, element steps, field offsets, frame
// slots and builtin dispatch — is computed here, so a closure only does
// the work of the C program. Steps and counters are charged exactly where
// C would execute the node: one step per statement, expression and loop
// back-edge, and loads, stores and allocations for locals even when they
// live in frame slots.

type (
	execFn func(fr *frame) ctrl
	evalFn func(fr *frame) Value
	addrFn func(fr *frame) (*Alloc, int)
)

type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// frame is one activation. Its cells are the function's slots: a local
// that never has its address taken lives in its slot; any other local
// (arrays, structs, address-taken scalars) is an allocation the slot
// refers to through A. A zero slot is a local whose declaration has not
// run yet.
type frame struct {
	Alloc
	ret Value
}

// function is a compiled function.
type function struct {
	decl   *minic.FuncDecl
	body   execFn // nil for prototypes
	params []func(fr *frame, v Value)
	nslots int
}

// static is the storage of a global or a function-scoped static; nil
// until its declaration has run.
type static struct{ a *Alloc }

// local is a block-scoped variable or parameter.
type local struct {
	slot  int
	alloc bool // the slot refers to an allocation
}

type compiler struct {
	m         *Machine
	ret       *minic.Type // decayed return type of the function compiled
	locals    map[*minic.VarDecl]*local
	addressed map[*minic.VarDecl]bool // see addressTaken
	nslots    int
}

// compileFunc compiles cf's body.
func (m *Machine) compileFunc(cf *function) {
	fn := cf.decl
	if fn.Body == nil {
		return
	}
	c := &compiler{m: m, ret: fn.Type.Ret.Decay(),
		locals: map[*minic.VarDecl]*local{}, addressed: map[*minic.VarDecl]bool{}}
	addressTaken(fn.Body, c.addressed)
	for i := range fn.Params {
		cf.params = append(cf.params, c.param(fn, i))
	}
	cf.body = c.stmt(fn.Body)
	cf.nslots = c.nslots
}

// addressTaken records in set every variable that an & expression under
// n takes the address of, whole or in part: those need an allocation of
// their own rather than frame slots.
func addressTaken(n minic.Node, set map[*minic.VarDecl]bool) {
	walk := func(ns ...minic.Node) {
		for _, k := range ns {
			addressTaken(k, set)
		}
	}
	switch x := n.(type) {
	case *minic.UnaryExpr:
		if d := lvalueRoot(x.X); x.Op == minic.Amp && d != nil {
			set[d] = true
		}
		walk(x.X)
	case *minic.BinaryExpr:
		walk(x.L, x.R)
	case *minic.AssignExpr:
		walk(x.L, x.R)
	case *minic.CommaExpr:
		walk(x.L, x.R)
	case *minic.CondExpr:
		walk(x.Cond, x.Then, x.Else)
	case *minic.CallExpr:
		for _, a := range x.Args {
			walk(a)
		}
	case *minic.IndexExpr:
		walk(x.X, x.Index)
	case *minic.MemberExpr:
		walk(x.X)
	case *minic.CastExpr:
		walk(x.X)
	case *minic.InitListExpr:
		for _, item := range x.Items {
			walk(item)
		}
	case *minic.ExprStmt:
		walk(x.X)
	case *minic.DeclStmt:
		for _, d := range x.Decls {
			walk(d.Type.ArrayLenExpr, d.Init)
		}
	case *minic.BlockStmt:
		for _, sub := range x.List {
			walk(sub)
		}
	case *minic.IfStmt:
		walk(x.Cond, x.Then, x.Else)
	case *minic.ForStmt:
		walk(x.Init, x.Cond, x.Post, x.Body)
	case *minic.WhileStmt:
		walk(x.Cond, x.Body)
	case *minic.SwitchStmt:
		walk(x.Tag)
		for _, cc := range x.Cases {
			walk(cc.Value)
			for _, sub := range cc.Body {
				walk(sub)
			}
		}
	case *minic.ReturnStmt:
		walk(x.Value)
	}
}

// staticFor returns the storage cell of a global or static local.
func (m *Machine) staticFor(d *minic.VarDecl) *static {
	s := m.statics[d]
	if s == nil {
		s = &static{}
		m.statics[d] = s
	}
	return s
}

// pushFrame readies the frame for a call at the current depth.
func (m *Machine) pushFrame(n int) *frame {
	if m.depth == len(m.frames) {
		m.frames = append(m.frames, &frame{})
	}
	fr := m.frames[m.depth]
	if cap(fr.Cells) < n {
		fr.Cells = make([]Value, n)
	} else {
		fr.Cells = fr.Cells[:n]
		clear(fr.Cells)
	}
	fr.ret = Value{}
	return fr
}

// invoke calls cf with the arguments pushed on m.args from base.
func (m *Machine) invoke(cf *function, base int) Value {
	fn := cf.decl
	maxDepth := m.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	}
	if m.depth >= maxDepth {
		m.must(m.fault(&fn.Pos, FaultStackOverflow,
			"call depth %d exceeded in %s", maxDepth, fn.Name))
	}
	args := m.args[base:]
	if len(args) != len(fn.Params) {
		m.must(fmt.Errorf("interp: %s expects %d args, got %d",
			fn.Name, len(fn.Params), len(args)))
	}
	if cf.body == nil {
		// A prototype (extern declaration) carries no body to execute.
		m.must(m.fault(&fn.Pos, FaultUnsupported,
			"call to %s, which is declared but not defined", fn.Name))
	}
	fr := m.pushFrame(cf.nslots)
	m.depth++
	m.Counters.Calls++
	for i, bind := range cf.params {
		bind(fr, args[i])
	}
	m.args = m.args[:base]
	c := cf.body(fr)
	m.depth--
	if c == ctrlReturn {
		return fr.ret
	}
	return VoidValue()
}

// snapshot copies a struct value's cells so later writes to its source
// cannot change it (arguments and return values).
func snapshot(v Value) Value {
	if v.Kind() != VStruct {
		return v
	}
	n := FlatSize(v.T)
	cells := make([]Value, n)
	copy(cells, v.A.Cells[v.I:int(v.I)+n])
	return Value{T: v.T, A: &Alloc{Cells: cells}}
}

// newLocal assigns d its frame slots. A scalar or struct whose address
// is never taken lives in the slots (one per leaf); anything else gets an
// allocation, which one slot refers to.
func (c *compiler) newLocal(d *minic.VarDecl) *local {
	t := d.Type
	n := 1
	inSlots := !c.addressed[d] && t.Kind != minic.TArray
	if t.Kind == minic.TStruct {
		// Array members decay to pointers into the struct, and a brace
		// initializer may read the previous binding while it is built.
		_, list := d.Init.(*minic.InitListExpr)
		n = FlatSize(t)
		inSlots = inSlots && n > 0 && !list && !hasArray(t)
	}
	l := &local{slot: c.nslots, alloc: !inSlots}
	if l.alloc {
		n = 1
	}
	c.nslots += n
	c.locals[d] = l
	return l
}

// hasArray reports whether struct t has an array member at any depth.
func hasArray(t *minic.Type) bool {
	for _, f := range t.Fields {
		if f.Type.Kind == minic.TArray || (f.Type.Kind == minic.TStruct && hasArray(f.Type)) {
			return true
		}
	}
	return false
}

// param compiles the binding of parameter i: conversion to its type,
// value profiling, its allocation and the store of the argument.
func (c *compiler) param(fn *minic.FuncDecl, i int) func(*frame, Value) {
	p := fn.Params[i]
	m, pos, t := c.m, &fn.Pos, p.Type
	l := c.newLocal(p)
	what := fmt.Sprintf("argument %d to %s", i+1, fn.Name)
	convert := func(v Value) Value {
		av := m.convert(v, t, pos, what)
		// Value profiling observes parameter values too — the paper's
		// profiling environment records what each call site passes.
		if m.Observe != nil && av.Kind() == VInt {
			m.Observe(p.Name, av)
		}
		return av
	}
	n := FlatSize(t)
	switch {
	case !l.alloc && t.Kind == minic.TStruct:
		return func(fr *frame, v Value) {
			av := convert(v)
			m.nextAllocID++
			m.copyCells(&fr.Alloc, l.slot, av, n, t, pos)
		}
	case !l.alloc:
		return func(fr *frame, v Value) {
			av := convert(v)
			m.nextAllocID++
			m.Counters.Stores++
			fr.Cells[l.slot] = av
		}
	}
	leaves := FlatLeaves(t, nil)
	return func(fr *frame, v Value) {
		av := convert(v)
		a := m.newAlloc(p.Name, t, leaves, 1)
		fr.Cells[l.slot] = Value{T: t, A: a}
		if t.Kind == minic.TStruct {
			m.copyCells(a, 0, av, n, t, pos)
		} else {
			m.store(a, 0, av, t, pos)
		}
	}
}

// ---- Declarations ----

// localDecl compiles the execution of one declaration in a DeclStmt.
func (c *compiler) localDecl(d *minic.VarDecl) func(*frame) {
	m := c.m
	if d.Storage == minic.SCStatic {
		// Function-scoped statics allocate and initialize once and
		// persist across calls (C semantics).
		s := m.staticFor(d)
		declare := c.declare(d)
		return func(fr *frame) {
			if s.a == nil {
				s.a = declare(fr)
			}
		}
	}
	l := c.newLocal(d)
	if l.alloc {
		declare := c.declare(d)
		return func(fr *frame) {
			fr.Cells[l.slot] = Value{T: d.Type, A: declare(fr)}
		}
	}
	if d.Type.Kind == minic.TStruct {
		return c.structSlots(d, l.slot)
	}
	zero := zeroValue(d.Type)
	init := d.Init
	for {
		il, ok := init.(*minic.InitListExpr)
		if !ok {
			break
		}
		if len(il.Items) != 1 {
			return func(*frame) {
				m.nextAllocID++
				m.Counters.Allocs++
				m.must(m.fault(&il.Pos, FaultBadCast, "scalar initializer list for %s", d.Type))
			}
		}
		init = il.Items[0]
	}
	if init == nil {
		return func(fr *frame) {
			m.nextAllocID++
			m.Counters.Allocs++
			fr.Cells[l.slot] = zero
		}
	}
	// The initializer runs before the slot is rebound, as it runs before
	// a fresh allocation is bound: it still sees the previous binding.
	x, ipos, t := c.expr(init), posOf(init), zero.Type()
	return func(fr *frame) {
		m.nextAllocID++
		m.Counters.Allocs++
		v := x(fr)
		if m.Observe != nil {
			if k := v.Kind(); k != VStruct && k != VVoid {
				m.Observe(d.Name, v)
			}
		}
		fr.Cells[l.slot] = m.convert(v, t, ipos, "store")
		m.Counters.Stores++
	}
}

// structSlots compiles the declaration of a struct local held in frame
// slots.
func (c *compiler) structSlots(d *minic.VarDecl, slot int) func(*frame) {
	m, t := c.m, d.Type
	n := FlatSize(t)
	if d.Init == nil {
		zero := zeroCells(FlatLeaves(t, nil), 1)
		return func(fr *frame) {
			m.nextAllocID++
			m.Counters.Allocs++
			copy(fr.Cells[slot:slot+n], zero)
		}
	}
	x, ipos := c.expr(d.Init), posOf(d.Init)
	return func(fr *frame) {
		m.nextAllocID++
		m.Counters.Allocs++
		m.copyCells(&fr.Alloc, slot, x(fr), n, t, ipos)
	}
}

// declare compiles allocating d's storage and running its initializer.
func (c *compiler) declare(d *minic.VarDecl) func(*frame) *Alloc {
	m, t, pos := c.m, d.Type, &d.Pos
	var alloc func(*frame) *Alloc
	switch {
	case t.Kind == minic.TArray && t.ArrayLen >= 0:
		leaves := FlatLeaves(t.Elem, nil)
		alloc = func(*frame) *Alloc { return m.newAlloc(d.Name, t.Elem, leaves, t.ArrayLen) }
	case t.Kind == minic.TArray && t.ArrayLenExpr != nil:
		length := c.expr(t.ArrayLenExpr)
		per := FlatSize(t.Elem)
		leaves := FlatLeaves(t.Elem, nil)
		alloc = func(fr *frame) *Alloc {
			n := length(fr).Int()
			if n < 0 {
				m.must(m.fault(pos, FaultOutOfBounds, "negative VLA length %d", n))
			}
			if per == 0 {
				m.must(m.fault(pos, FaultUnsupported, "VLA of dynamically sized element"))
			}
			return m.newAlloc(d.Name, t.Elem, leaves, int(n))
		}
	case t.Kind == minic.TArray:
		// Incomplete array with no initializer-completed length.
		alloc = func(*frame) *Alloc {
			m.must(m.fault(pos, FaultUnsupported, "array %q has unknown length", d.Name))
			return nil
		}
	default:
		leaves := FlatLeaves(t, nil)
		alloc = func(*frame) *Alloc { return m.newAlloc(d.Name, t, leaves, 1) }
	}
	var init func(*frame, *Alloc, int)
	if d.Init != nil {
		init = c.initializer(t, d.Init, d.Name)
	}
	return func(fr *frame) *Alloc {
		a := alloc(fr)
		m.Counters.Allocs++
		if init != nil {
			init(fr, a, 0)
		}
		return a
	}
}

// initializer compiles storing init (scalar or brace list) into an object
// of type t at a[off]. name is the variable observed by value profiling
// ("" inside aggregates).
func (c *compiler) initializer(t *minic.Type, init minic.Expr, name string) func(*frame, *Alloc, int) {
	m := c.m
	il, isList := init.(*minic.InitListExpr)
	if !isList {
		x := c.expr(init)
		td := t.Decay()
		ipos := posOf(init)
		if td.Kind == minic.TStruct {
			n := FlatSize(td)
			return func(fr *frame, a *Alloc, off int) {
				m.copyCells(a, off, x(fr), n, td, ipos)
			}
		}
		return func(fr *frame, a *Alloc, off int) {
			v := x(fr)
			if name != "" && m.Observe != nil {
				if k := v.Kind(); k != VStruct && k != VVoid {
					m.Observe(name, v)
				}
			}
			m.store(a, off, v, td, ipos)
		}
	}
	var items []func(*frame, *Alloc, int)
	var offs []int
	switch t.Kind {
	case minic.TArray:
		per := FlatSize(t.Elem)
		for i, item := range il.Items {
			items = append(items, c.initializer(t.Elem, item, ""))
			offs = append(offs, i*per)
		}
	case minic.TStruct:
		for i, item := range il.Items {
			items = append(items, c.initializer(t.Fields[i].Type, item, ""))
			offs = append(offs, fieldOffset(t, i))
		}
	default:
		if len(il.Items) == 1 {
			return c.initializer(t, il.Items[0], name)
		}
		return func(*frame, *Alloc, int) {
			m.must(m.fault(&il.Pos, FaultBadCast, "scalar initializer list for %s", t))
		}
	}
	return func(fr *frame, a *Alloc, off int) {
		for i, item := range items {
			item(fr, a, off+offs[i])
		}
	}
}

// posOf returns a stable pointer to n's position.
func posOf(n minic.Node) *minic.Pos {
	p := n.NodePos()
	return &p
}

// ---- Statements ----

func (c *compiler) stmt(s minic.Stmt) execFn {
	if s == nil {
		return nil
	}
	m, pos := c.m, posOf(s)
	switch st := s.(type) {
	case *minic.ExprStmt:
		x := c.expr(st.X)
		return func(fr *frame) ctrl {
			m.step(pos)
			x(fr)
			return ctrlNone
		}
	case *minic.DeclStmt:
		var decls []func(*frame)
		for _, d := range st.Decls {
			decls = append(decls, c.localDecl(d))
		}
		return func(fr *frame) ctrl {
			m.step(pos)
			for _, d := range decls {
				d(fr)
			}
			return ctrlNone
		}
	case *minic.BlockStmt:
		var list []execFn
		for _, sub := range st.List {
			if x := c.stmt(sub); x != nil {
				list = append(list, x)
			}
		}
		return func(fr *frame) ctrl {
			m.step(pos)
			for _, x := range list {
				if k := x(fr); k != ctrlNone {
					return k
				}
			}
			return ctrlNone
		}
	case *minic.IfStmt:
		cond, then, els := c.truth(st.Cond), c.stmt(st.Then), c.stmt(st.Else)
		return func(fr *frame) ctrl {
			m.step(pos)
			t := cond(fr)
			m.Counters.Branches++
			switch {
			case t && then != nil:
				return then(fr)
			case !t && els != nil:
				return els(fr)
			}
			return ctrlNone
		}
	case *minic.ForStmt:
		// Init first: it may declare what the rest uses.
		init := c.stmt(st.Init)
		var cond func(*frame) bool
		if st.Cond != nil {
			cond = c.truth(st.Cond)
		}
		var post evalFn
		if st.Post != nil {
			post = c.expr(st.Post)
		}
		return c.loop(pos, init, cond, c.stmt(st.Body), post)
	case *minic.WhileStmt:
		cond, body := c.truth(st.Cond), c.stmt(st.Body)
		if !st.Do {
			return c.loop(pos, nil, cond, body, nil)
		}
		return func(fr *frame) ctrl {
			m.step(pos)
			for {
				if body != nil {
					switch body(fr) {
					case ctrlBreak:
						return ctrlNone
					case ctrlReturn:
						return ctrlReturn
					}
				}
				t := cond(fr)
				m.Counters.Branches++
				if !t {
					return ctrlNone
				}
				m.step(pos)
			}
		}
	case *minic.SwitchStmt:
		return c.switchStmt(st, pos)
	case *minic.BreakStmt:
		return func(*frame) ctrl {
			m.step(pos)
			return ctrlBreak
		}
	case *minic.ContinueStmt:
		return func(*frame) ctrl {
			m.step(pos)
			return ctrlContinue
		}
	case *minic.ReturnStmt:
		if st.Value == nil {
			return func(fr *frame) ctrl {
				m.step(pos)
				fr.ret = VoidValue()
				return ctrlReturn
			}
		}
		x, rt := c.expr(st.Value), c.ret
		return func(fr *frame) ctrl {
			m.step(pos)
			fr.ret = snapshot(m.convert(x(fr), rt, pos, "return"))
			return ctrlReturn
		}
	default:
		return func(*frame) ctrl {
			m.step(pos)
			m.must(m.fault(pos, FaultUnsupported, "statement %T", s))
			return ctrlNone
		}
	}
}

// loop compiles a for or while loop; init, cond, body and post may each
// be nil. The back-edge takes a step of its own.
func (c *compiler) loop(pos *minic.Pos, init execFn, cond func(*frame) bool, body execFn, post evalFn) execFn {
	m := c.m
	return func(fr *frame) ctrl {
		m.step(pos)
		if init != nil {
			init(fr)
		}
		for {
			if cond != nil {
				t := cond(fr)
				m.Counters.Branches++
				if !t {
					return ctrlNone
				}
			}
			if body != nil {
				switch body(fr) {
				case ctrlBreak:
					return ctrlNone
				case ctrlReturn:
					return ctrlReturn
				}
			}
			if post != nil {
				post(fr)
			}
			m.step(pos)
		}
	}
}

func (c *compiler) switchStmt(st *minic.SwitchStmt, pos *minic.Pos) execFn {
	m := c.m
	tag := c.expr(st.Tag)
	type clause struct {
		value evalFn // nil for default
		body  []execFn
	}
	var cases []clause
	def := -1
	for i, cc := range st.Cases {
		var cl clause
		if cc.IsDefault {
			if def < 0 {
				def = i
			}
		} else {
			cl.value = c.expr(cc.Value)
		}
		for _, sub := range cc.Body {
			if x := c.stmt(sub); x != nil {
				cl.body = append(cl.body, x)
			}
		}
		cases = append(cases, cl)
	}
	return func(fr *frame) ctrl {
		m.step(pos)
		t := tag(fr).Int()
		m.Counters.Branches++
		match := def
		for i, cl := range cases {
			if cl.value != nil && cl.value(fr).Int() == t {
				match = i
				break
			}
		}
		if match < 0 {
			return ctrlNone
		}
		// Fall through subsequent cases until break/return.
		for _, cl := range cases[match:] {
			for _, x := range cl.body {
				switch k := x(fr); k {
				case ctrlBreak:
					return ctrlNone
				case ctrlReturn, ctrlContinue:
					return k
				}
			}
		}
		return ctrlNone
	}
}
