package interp

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"facc/internal/minic"
	"facc/internal/obs"
)

// FaultKind classifies runtime faults. Generate-and-test uses these the way
// the paper uses AddressSanitizer: a fault under a candidate binding is
// evidence the binding (e.g. an inferred length variable) is wrong.
type FaultKind int

// Fault kinds.
const (
	FaultNone FaultKind = iota
	FaultOutOfBounds
	FaultNullDeref
	FaultUseAfterFree
	FaultDoubleFree
	FaultBadCast
	FaultDivZero
	FaultStackOverflow
	FaultFuelExhausted
	FaultBadPointerOp
	FaultUnsupported
	FaultAssert
	FaultExit
	// FaultCancelled reports that the machine's context was cancelled or
	// its deadline expired mid-interpretation (the error unwraps to the
	// context's cause, so errors.Is(err, context.DeadlineExceeded) works).
	FaultCancelled
	// FaultPanic classifies a Go panic recovered while evaluating a
	// candidate — the synthesis engine converts it into a per-candidate
	// rejection instead of letting it kill the process.
	FaultPanic
)

var faultNames = map[FaultKind]string{
	FaultOutOfBounds: "out-of-bounds", FaultNullDeref: "null-deref",
	FaultUseAfterFree: "use-after-free", FaultDoubleFree: "double-free",
	FaultBadCast: "bad-cast", FaultDivZero: "division-by-zero",
	FaultStackOverflow: "stack-overflow", FaultFuelExhausted: "fuel-exhausted",
	FaultBadPointerOp: "bad-pointer-op", FaultUnsupported: "unsupported",
	FaultAssert: "assertion-failure", FaultExit: "exit",
	FaultCancelled: "cancelled", FaultPanic: "panic",
}

func (k FaultKind) String() string {
	if s, ok := faultNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// RuntimeError is a fault raised during interpretation.
type RuntimeError struct {
	Kind FaultKind
	Pos  minic.Pos
	Msg  string
	// Err is the underlying cause, when the fault wraps one (e.g. the
	// context error behind a FaultCancelled). May be nil.
	Err error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.Pos, e.Kind, e.Msg)
}

// Unwrap exposes the cause so errors.Is/As see through the fault (e.g.
// errors.Is(err, context.DeadlineExceeded) on a cancellation fault).
func (e *RuntimeError) Unwrap() error { return e.Err }

// FaultOf extracts the fault kind from an error, seeing through any
// wrapping (fmt.Errorf %w etc.); FaultNone if no RuntimeError is in the
// chain.
func FaultOf(err error) FaultKind {
	var re *RuntimeError
	if errors.As(err, &re) {
		return re.Kind
	}
	return FaultNone
}

// Counters tallies executed operations; the accel package converts these
// into platform cycle estimates.
type Counters struct {
	IntOps    int64
	FloatOps  int64 // adds/subs/muls (complex ops decompose into these)
	FloatDivs int64
	Loads     int64
	Stores    int64
	Branches  int64
	Calls     int64
	MathCalls int64 // libm calls (sin, cos, ...)
	Allocs    int64
	Steps     int64
}

// Total returns the unweighted operation total.
func (c Counters) Total() int64 {
	return c.IntOps + c.FloatOps + c.FloatDivs + c.Loads + c.Stores +
		c.Branches + c.Calls + c.MathCalls
}

// Add accumulates o into c field by field.
func (c *Counters) Add(o Counters) {
	c.IntOps += o.IntOps
	c.FloatOps += o.FloatOps
	c.FloatDivs += o.FloatDivs
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.Branches += o.Branches
	c.Calls += o.Calls
	c.MathCalls += o.MathCalls
	c.Allocs += o.Allocs
	c.Steps += o.Steps
}

// Sub returns c - o field by field. Snapshotting TotalCounters before a
// run and subtracting afterwards attributes one window of work on a
// long-lived (pooled) machine — the seam synthesis' shared reference
// oracle uses to meter reuse without resetting machine-lifetime totals.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		IntOps:    c.IntOps - o.IntOps,
		FloatOps:  c.FloatOps - o.FloatOps,
		FloatDivs: c.FloatDivs - o.FloatDivs,
		Loads:     c.Loads - o.Loads,
		Stores:    c.Stores - o.Stores,
		Branches:  c.Branches - o.Branches,
		Calls:     c.Calls - o.Calls,
		MathCalls: c.MathCalls - o.MathCalls,
		Allocs:    c.Allocs - o.Allocs,
		Steps:     c.Steps - o.Steps,
	}
}

// Machine interprets one MiniC translation unit. The zero value is not
// usable; call NewMachine.
type Machine struct {
	File     *minic.File
	Out      bytes.Buffer // captured printf/puts output
	Counters Counters
	// Totals accumulates the counters of every completed run: Reset folds
	// Counters into it, so a fuzz loop that Resets per case can still
	// report machine-lifetime totals (see TotalCounters).
	Totals   Counters
	MaxSteps int64 // fuel; 0 means DefaultMaxSteps
	MaxDepth int   // call depth limit; 0 means DefaultMaxDepth

	// Observe, when non-nil, is called with every scalar value assigned
	// to a named variable — FACC's value-profiling hook.
	Observe func(name string, v Value)

	// Obs, when non-nil, receives fault counters (interp.faults and
	// interp.faults.<kind>) — the observability hook. Nil is a no-op and
	// costs nothing on the interpretation hot path.
	Obs *obs.Registry

	// Ctx, when non-nil, is polled every ctxPollStride steps: once it is
	// cancelled (or its deadline passes) interpretation stops promptly
	// with a FaultCancelled that unwraps to the context error. Nil (the
	// default) keeps the step path free of context checks.
	Ctx context.Context

	funcs       map[string]*function          // by name, definitions first
	byDecl      map[*minic.FuncDecl]*function // every declaration
	statics     map[*minic.VarDecl]*static    // globals and static locals
	frames      []*frame                      // frame pool, indexed by depth
	args        []Value                       // argument stack
	nextAllocID int
	nextCheck   int64 // Counters.Steps at which step takes its slow path
	depth       int
	exitCode    int
}

// Defaults for fuel and stack depth.
const (
	DefaultMaxSteps = 200_000_000
	DefaultMaxDepth = 4096
)

// ctxPollStride is how many interpreter steps run between context checks.
// A step costs a few tens of nanoseconds, so 1024 steps bound cancellation
// latency well under 0.1ms while keeping Ctx.Err off the hot path.
const ctxPollStride = 1024

// faultPanic carries an interpretation error up the Go stack to the
// Call or NewMachine that started the run.
type faultPanic struct{ err error }

// NewMachine builds a machine for f: it compiles every function to
// closures and evaluates global initializers. f must have been checked
// with minic.Check.
func NewMachine(f *minic.File) (*Machine, error) {
	m := &Machine{
		File:     f,
		MaxSteps: DefaultMaxSteps,
		MaxDepth: DefaultMaxDepth,
		funcs:    map[string]*function{},
		byDecl:   map[*minic.FuncDecl]*function{},
		statics:  map[*minic.VarDecl]*static{},
	}
	for _, fn := range f.Funcs {
		cf := &function{decl: fn}
		m.byDecl[fn] = cf
		if prev, ok := m.funcs[fn.Name]; !ok || prev.decl.Body == nil {
			m.funcs[fn.Name] = cf
		}
	}
	for _, g := range f.Globals {
		m.statics[g] = &static{}
	}
	for _, cf := range m.byDecl {
		m.compileFunc(cf)
	}
	if err := m.initGlobals(); err != nil {
		return nil, err
	}
	return m, nil
}

// initGlobals allocates the globals in order and runs their initializers.
func (m *Machine) initGlobals() (err error) {
	defer m.recoverFault(m.depth, len(m.args), &err)
	m.resetCheck()
	c := &compiler{m: m}
	fr := m.pushFrame(0)
	for _, g := range m.File.Globals {
		m.statics[g].a = c.declare(g)(fr)
	}
	return nil
}

// Reset clears counters, output and fuel so the machine can run another
// call with fresh measurements. Global state persists (as it would in a
// process), which benchmark 11's twiddle-factor memoization relies on.
func (m *Machine) Reset() {
	m.Totals.Add(m.Counters)
	m.Counters = Counters{}
	m.Out.Reset()
}

// TotalCounters returns the machine-lifetime operation counters: every
// completed (Reset) run plus the current one.
func (m *Machine) TotalCounters() Counters {
	t := m.Totals
	t.Add(m.Counters)
	return t
}

func (m *Machine) fault(pos *minic.Pos, kind FaultKind, format string, args ...any) error {
	return m.faultCause(pos, kind, nil, format, args...)
}

// faultCause raises a fault wrapping an underlying error, so callers can
// classify with errors.Is/As through the RuntimeError.
func (m *Machine) faultCause(pos *minic.Pos, kind FaultKind, cause error, format string, args ...any) error {
	if m.Obs != nil {
		m.Obs.Counter("interp.faults").Inc()
		m.Obs.Counter("interp.faults." + kind.String()).Inc()
	}
	return &RuntimeError{Kind: kind, Pos: *pos, Msg: fmt.Sprintf(format, args...), Err: cause}
}

// must unwinds the current run with err, if non-nil.
func (m *Machine) must(err error) {
	if err != nil {
		panic(faultPanic{err})
	}
}

// recoverFault, deferred by the entry points, turns an unwinding fault
// into *errp. Either way it restores the call depth and argument stack
// the run started with; any panic other than a fault is a bug in the
// interpreter and keeps unwinding.
func (m *Machine) recoverFault(depth, nargs int, errp *error) {
	if r := recover(); r != nil {
		m.depth, m.args = depth, m.args[:nargs]
		fp, ok := r.(faultPanic)
		if !ok {
			panic(r)
		}
		*errp = fp.err
	}
}

// fuel returns the step limit.
func (m *Machine) fuel() int64 {
	if m.MaxSteps == 0 {
		return DefaultMaxSteps
	}
	return m.MaxSteps
}

// resetCheck schedules step's next slow path: the first step past the
// fuel limit or, with a context, the next poll.
func (m *Machine) resetCheck() {
	m.nextCheck = m.fuel() + 1
	if m.Ctx != nil {
		if poll := (m.Counters.Steps/ctxPollStride + 1) * ctxPollStride; poll < m.nextCheck {
			m.nextCheck = poll
		}
	}
}

// step counts one executed statement, expression or loop back-edge.
// Counters.Steps is also the fuel gauge: Reset zeroes both.
func (m *Machine) step(pos *minic.Pos) {
	m.Counters.Steps++
	if m.Counters.Steps >= m.nextCheck {
		m.stepSlow(pos)
	}
}

func (m *Machine) stepSlow(pos *minic.Pos) {
	if max := m.fuel(); m.Counters.Steps > max {
		m.must(m.fault(pos, FaultFuelExhausted, "step limit %d exceeded", max))
	}
	if m.Ctx != nil && m.Counters.Steps%ctxPollStride == 0 {
		if err := m.Ctx.Err(); err != nil {
			m.must(m.faultCause(pos, FaultCancelled, err,
				"interpretation cancelled: %v", err))
		}
	}
	m.resetCheck()
}

// CallNamed invokes the named function with the given argument values.
func (m *Machine) CallNamed(name string, args []Value) (Value, error) {
	cf, ok := m.funcs[name]
	if !ok || cf.decl.Body == nil {
		return Value{}, fmt.Errorf("interp: no function %q", name)
	}
	return m.Call(cf.decl, args)
}

// Call invokes fn with args (converted to parameter types).
func (m *Machine) Call(fn *minic.FuncDecl, args []Value) (ret Value, err error) {
	cf := m.byDecl[fn]
	if cf == nil {
		cf = &function{decl: fn}
		m.byDecl[fn] = cf
		m.compileFunc(cf)
	}
	base := len(m.args)
	defer m.recoverFault(m.depth, base, &err)
	m.resetCheck()
	m.args = append(m.args, args...)
	return m.invoke(cf, base), nil
}
