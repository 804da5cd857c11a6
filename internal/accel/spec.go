// Package accel models the three compilation targets of the paper's
// evaluation: the Analog Devices FFTA and NXP PowerQuad hardware
// accelerators, and an FFTW-like optimized software library. Each target
// is described by a Spec (the API surface and domain constraints binding
// synthesis works against), a functional simulator (what the "hardware"
// computes, including behavioral quirks like normalization), and a latency
// model (used by the evaluation harness; absolute values are synthetic,
// ratios are calibrated to the paper's reported speedups).
package accel

import (
	"fmt"

	"facc/internal/fft"
	"facc/internal/minic"
	"facc/internal/obs"
)

// Role classifies an accelerator API parameter for binding synthesis.
type Role int

// Parameter roles.
const (
	RoleInput     Role = iota // input complex array
	RoleOutput                // output complex array
	RoleLength                // element count of the arrays
	RoleDirection             // forward/inverse selector
	RoleFlags                 // planner/config flags with a fixed value set
)

func (r Role) String() string {
	switch r {
	case RoleInput:
		return "input"
	case RoleOutput:
		return "output"
	case RoleLength:
		return "length"
	case RoleDirection:
		return "direction"
	case RoleFlags:
		return "flags"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Param is one parameter of the accelerator API.
type Param struct {
	Name string
	Type *minic.Type
	Role Role

	// Values lists the legal constant values for direction/flags
	// parameters; binding synthesis tries each (behavioral
	// specialization).
	Values []int64
}

// Spec describes a compilation target.
type Spec struct {
	Name     string // "ffta", "powerquad", "fftw"
	CallName string // function name emitted in adapters
	Params   []Param

	// Domain constraints (the range-check generator consumes these).
	MinN           int
	MaxN           int
	PowerOfTwoOnly bool

	// Behavioral quirks (behavioral synthesis bridges these).
	NormalizedOutput  bool // output is scaled by 1/N (FFTA quirk)
	BitReversedOutput bool
	HasDirection      bool
	InPlace           bool
	AlignmentBytes    int

	// Latency model: Time(n) = Overhead + PerPoint·n·log2(n), plus
	// Transfer·n for moving data on/off the device.
	OverheadSec     float64
	PerPointSec     float64
	TransferPerElem float64

	// Exec, when non-nil, replaces the built-in simulator as the
	// execution backend for Run: the seam through which a test
	// substitutes a fake device (one that panics, say) without any change
	// to the pipeline's call sites. Nil runs the simulator directly.
	Exec func(input []complex128, dir fft.Direction) ([]complex128, error)

	// runs counts simulator invocations when observability is attached
	// (see Instrument); nil is a free no-op.
	runs *obs.Counter
}

// Instrument attaches a metrics registry to the spec: every Run bumps the
// per-target accel.runs.<name> counter. A nil registry detaches.
func (s *Spec) Instrument(reg *obs.Registry) {
	s.runs = reg.Counter("accel.runs." + s.Name)
}

// complexFloatStruct is the C-visible element type accelerator adapters
// traffic in: struct { float re, im; }.
var complexFloatStruct = &minic.Type{
	Kind:        minic.TStruct,
	StructName:  "float_complex",
	FromTypedef: true, // the emitted prelude typedefs it
	Fields: []minic.Field{
		{Name: "re", Type: minic.Float},
		{Name: "im", Type: minic.Float},
	},
}

// NewFFTA returns the Analog Devices FFTA spec: power-of-two lengths from
// 64 to 65536, out-of-place, 64-byte aligned buffers, normalized output.
func NewFFTA() *Spec {
	return &Spec{
		Name:     "ffta",
		CallName: "accel_cfft",
		Params: []Param{
			{Name: "input", Type: minic.PointerTo(complexFloatStruct), Role: RoleInput},
			{Name: "output", Type: minic.PointerTo(complexFloatStruct), Role: RoleOutput},
			{Name: "len", Type: minic.Int, Role: RoleLength},
		},
		MinN:             64,
		MaxN:             65536,
		PowerOfTwoOnly:   true,
		NormalizedOutput: true,
		AlignmentBytes:   64,
		OverheadSec:      30e-6,
		PerPointSec:      1.7e-8,
		TransferPerElem:  2.0e-9,
	}
}

// NewPowerQuad returns the NXP PowerQuad spec: power-of-two lengths from
// 16 to 4096, out-of-place, un-normalized.
func NewPowerQuad() *Spec {
	return &Spec{
		Name:     "powerquad",
		CallName: "pq_cfft",
		Params: []Param{
			{Name: "input", Type: minic.PointerTo(complexFloatStruct), Role: RoleInput},
			{Name: "output", Type: minic.PointerTo(complexFloatStruct), Role: RoleOutput},
			{Name: "length", Type: minic.Int, Role: RoleLength},
		},
		MinN:            16,
		MaxN:            4096,
		PowerOfTwoOnly:  true,
		OverheadSec:     70e-6,
		PerPointSec:     0.9e-7,
		TransferPerElem: 4.0e-9,
	}
}

// FFTW direction constants (the library's own convention).
const (
	FFTWForward  = -1
	FFTWBackward = 1
)

// NewFFTWLib returns the FFTW-style optimized-library spec. It is wider
// than the hardware APIs: any length, a direction parameter, and planner
// flags — which is why it produces more binding candidates (paper Fig. 16).
func NewFFTWLib() *Spec {
	return &Spec{
		Name:     "fftw",
		CallName: "fftw_call",
		Params: []Param{
			{Name: "acc_input", Type: minic.PointerTo(complexFloatStruct), Role: RoleInput},
			{Name: "acc_output", Type: minic.PointerTo(complexFloatStruct), Role: RoleOutput},
			{Name: "length", Type: minic.Int, Role: RoleLength},
			{Name: "direction", Type: minic.Int, Role: RoleDirection,
				Values: []int64{FFTWForward, FFTWBackward}},
			{Name: "flags", Type: minic.Int, Role: RoleFlags,
				Values: []int64{0, 64}}, // FFTW_MEASURE, FFTW_ESTIMATE
		},
		MinN:            1,
		MaxN:            1 << 24,
		HasDirection:    true,
		OverheadSec:     1.4e-6,
		PerPointSec:     1.6e-9,
		TransferPerElem: 0,
	}
}

// Specs returns all three targets in evaluation order.
func Specs() []*Spec {
	return []*Spec{NewFFTA(), NewPowerQuad(), NewFFTWLib()}
}

// SpecByName looks a target up by name.
func SpecByName(name string) (*Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("accel: unknown target %q (want ffta, powerquad, or fftw)", name)
}

// Supports reports whether the target accepts length n.
func (s *Spec) Supports(n int) bool {
	if n < s.MinN || n > s.MaxN {
		return false
	}
	if s.PowerOfTwoOnly && !fft.IsPowerOfTwo(n) {
		return false
	}
	return true
}

// ParamByRole returns the first parameter with the given role, or nil.
func (s *Spec) ParamByRole(r Role) *Param {
	for i := range s.Params {
		if s.Params[i].Role == r {
			return &s.Params[i]
		}
	}
	return nil
}

// DomainDescription renders the domain constraint for documentation and
// generated range checks.
func (s *Spec) DomainDescription() string {
	if s.PowerOfTwoOnly {
		return fmt.Sprintf("powers of two in [%d, %d]", s.MinN, s.MaxN)
	}
	return fmt.Sprintf("any length in [%d, %d]", s.MinN, s.MaxN)
}
