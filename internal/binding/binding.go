// Package binding implements FACC's binding synthesis (paper §5.1): it
// enumerates every plausible mapping from user-code variables to
// accelerator API parameters, pruned by type constraints and range/
// single-read heuristics. The surviving candidates are handed to the
// generate-and-test engine, which eliminates all but one by IO fuzzing.
package binding

import (
	"fmt"
	"sort"
	"strings"

	"facc/internal/accel"
	"facc/internal/minic"
	"facc/internal/obs"
)

// ComplexLayout describes how user code represents an array of complex
// samples — the heart of the data-mismatch problem.
type ComplexLayout int

// Complex layouts.
const (
	LayoutC99    ComplexLayout = iota // T _Complex array
	LayoutStruct                      // array of {re, im} structs
	LayoutSplit                       // two parallel real arrays
)

func (l ComplexLayout) String() string {
	switch l {
	case LayoutC99:
		return "c99"
	case LayoutStruct:
		return "struct"
	case LayoutSplit:
		return "split"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// ArrayBinding maps one logical complex array (the accelerator's input or
// output) onto user parameters.
type ArrayBinding struct {
	Layout ComplexLayout

	// Param is the user parameter holding the array (LayoutC99/Struct).
	Param string
	// ReParam/ImParam are the split-array parameters (LayoutSplit).
	ReParam, ImParam string
	// ReOff/ImOff are flattened field offsets within the element struct
	// (LayoutStruct).
	ReOff, ImOff int
	// Elem is the user element type (struct/complex/float).
	Elem *minic.Type
}

// Key returns a canonical identity for dedup/comparison.
func (a ArrayBinding) Key() string {
	switch a.Layout {
	case LayoutSplit:
		return fmt.Sprintf("split(%s,%s)", a.ReParam, a.ImParam)
	case LayoutStruct:
		return fmt.Sprintf("struct(%s,re=%d,im=%d)", a.Param, a.ReOff, a.ImOff)
	default:
		return fmt.Sprintf("c99(%s)", a.Param)
	}
}

// Params returns the user parameter names this binding consumes.
func (a ArrayBinding) Params() []string {
	if a.Layout == LayoutSplit {
		return []string{a.ReParam, a.ImParam}
	}
	return []string{a.Param}
}

// LengthConv is a non-trivial conversion between a user variable and the
// accelerator's length parameter (paper §5.1.1).
type LengthConv int

// Length conversions.
const (
	ConvIdentity LengthConv = iota // accel_len = user_value
	ConvExp2                       // accel_len = 1 << user_value
)

func (c LengthConv) String() string {
	if c == ConvExp2 {
		return "1<<n"
	}
	return "n"
}

// Apply converts a user value to the accelerator length.
func (c LengthConv) Apply(v int64) int64 {
	if c == ConvExp2 {
		if v < 0 || v > 30 {
			return -1
		}
		return 1 << uint(v)
	}
	return v
}

// LengthBinding supplies the accelerator's length parameter.
type LengthBinding struct {
	Param string // user parameter; empty when the length is constant
	Conv  LengthConv
	Const int64 // used when Param == ""
}

func (l LengthBinding) Key() string {
	if l.Param == "" {
		return fmt.Sprintf("const(%d)", l.Const)
	}
	return fmt.Sprintf("%s(%s)", l.Conv, l.Param)
}

// ScalarPin fixes an otherwise-unbound user scalar to a constant; the
// generated range check only admits calls where the parameter equals the
// pinned value (behavioral specialization of the user side).
type ScalarPin struct {
	Param string
	Value int64
}

// DirectionSource supplies an accelerator direction parameter: either a
// specialized constant or a mapping from a user flag parameter.
type DirectionSource struct {
	Constant int64
	Param    string          // non-empty when bound to a user flag
	Map      map[int64]int64 // user value -> accelerator value
}

func (d DirectionSource) Key() string {
	if d.Param == "" {
		return fmt.Sprintf("dir=%d", d.Constant)
	}
	pairs := make([]string, 0, len(d.Map))
	for k, v := range d.Map {
		pairs = append(pairs, fmt.Sprintf("%d->%d", k, v))
	}
	sort.Strings(pairs)
	return fmt.Sprintf("dir=%s{%s}", d.Param, strings.Join(pairs, ","))
}

// Candidate is one complete binding hypothesis.
type Candidate struct {
	Spec   *accel.Spec
	Input  ArrayBinding
	Output ArrayBinding
	Length LengthBinding

	// InPlace is set when the user function overwrites its input array.
	InPlace bool

	// Direction feeds the spec's direction parameter (specs with one).
	Direction *DirectionSource
	// Flags holds specialized constants for flags parameters.
	Flags map[string]int64
	// Pins are range-check-enforced constants for leftover user scalars.
	Pins []ScalarPin
	// FreeParams are user scalars hypothesized not to affect the output;
	// the fuzzer randomizes them to verify.
	FreeParams []string

	// ReturnIgnored notes a non-void user return value hypothesized to be
	// a status code independent of the transform (checked by fuzzing).
	ReturnIgnored bool

	// key is Key's value, kept by Enumerate: the candidates it returns
	// are read-only, and synthesis names each one in every span and
	// event it causes.
	key string
}

// Key returns a canonical identity string (used for dedup and stable
// ordering of generate-and-test).
func (c *Candidate) Key() string {
	if c.key != "" {
		return c.key
	}
	return c.render()
}

// render builds the Key string from the candidate's fields.
func (c *Candidate) render() string {
	parts := []string{
		"in=" + c.Input.Key(),
		"out=" + c.Output.Key(),
		"len=" + c.Length.Key(),
	}
	if c.InPlace {
		parts = append(parts, "inplace")
	}
	if c.Direction != nil {
		parts = append(parts, c.Direction.Key())
	}
	if len(c.Flags) > 0 {
		keys := make([]string, 0, len(c.Flags))
		for k, v := range c.Flags {
			keys = append(keys, fmt.Sprintf("%s=%d", k, v))
		}
		sort.Strings(keys)
		parts = append(parts, strings.Join(keys, ","))
	}
	for _, p := range c.Pins {
		parts = append(parts, fmt.Sprintf("pin(%s=%d)", p.Param, p.Value))
	}
	for _, p := range c.FreeParams {
		parts = append(parts, "free("+p+")")
	}
	return strings.Join(parts, " ")
}

// String renders the candidate for diagnostics.
func (c *Candidate) String() string { return c.Spec.Name + ": " + c.Key() }

// Options tunes candidate enumeration; zero value = paper defaults.
type Options struct {
	// DisableRangeHeuristic admits bindings the range heuristic would
	// prune (ablation).
	DisableRangeHeuristic bool
	// DisableSingleRead admits bindings that read one user variable into
	// several accelerator parameters (ablation).
	DisableSingleRead bool
	// MaxCandidates caps enumeration (0 = unlimited).
	MaxCandidates int
	// Obs, when non-nil, receives enumeration metrics: binding.emitted,
	// binding.candidates, and binding.pruned.<heuristic> counters (the
	// enumerated-vs-pruned transparency of paper Fig. 16).
	Obs *obs.Registry
	// Events, when non-nil, receives the head of each candidate's
	// lifecycle: one "emitted" event per candidate that enters the test
	// queue (with its binding key) and one "pruned" event per heuristic,
	// dedup or cap rejection (with what rejected it) — together every
	// hypothesis the enumerator formed. Nil costs nothing.
	Events *obs.Events
}

// complexElemInfo describes how an element type encodes a complex sample.
type complexElemInfo struct {
	ok     bool
	layout ComplexLayout
	reOff  int
	imOff  int
}

// classifyElem decides whether elem can carry complex samples and how.
func classifyElem(elem *minic.Type) []complexElemInfo {
	switch {
	case elem.IsComplex():
		return []complexElemInfo{{ok: true, layout: LayoutC99}}
	case elem.Kind == minic.TStruct:
		// Two real floating fields: enumerate both (re,im) orders, with
		// the conventional naming order first.
		if len(elem.Fields) != 2 ||
			!elem.Fields[0].Type.IsFloat() || !elem.Fields[1].Type.IsFloat() {
			return nil
		}
		first := complexElemInfo{ok: true, layout: LayoutStruct, reOff: 0, imOff: 1}
		second := complexElemInfo{ok: true, layout: LayoutStruct, reOff: 1, imOff: 0}
		if looksImaginary(elem.Fields[0].Name) && !looksImaginary(elem.Fields[1].Name) {
			first, second = second, first
		}
		return []complexElemInfo{first, second}
	default:
		return nil
	}
}

func looksImaginary(name string) bool {
	n := strings.ToLower(name)
	return strings.HasPrefix(n, "im") || n == "i" || strings.HasPrefix(n, "imag")
}

func looksReal(name string) bool {
	n := strings.ToLower(name)
	return strings.HasPrefix(n, "re") || n == "r" || strings.HasPrefix(n, "real")
}
