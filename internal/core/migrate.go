package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"facc/internal/accel"
	"facc/internal/behave"
	"facc/internal/fft"
	"facc/internal/minic"
)

// This file implements the paper's closing direction (§10): "FACC can also
// be used to match optimized libraries to emerging hardware, e.g. matching
// FFTW to FFTA" — users who already restructured their code around a
// library keep benefiting from hardware evolution. The source "user code"
// is the library's own functional contract, so generate-and-test runs the
// two functional models against each other instead of interpreting C.

// Migration is a validated library→accelerator adapter.
type Migration struct {
	From *accel.Spec
	To   *accel.Spec

	// Post patches the target's output to match the source library.
	Post behave.PostOp
	// ForwardOnly is set when the source API exposes directions the
	// target lacks; the range check pins the direction parameter.
	ForwardOnly bool
	// MinN/MaxN/PowerOfTwoOnly describe the accelerated sub-domain
	// (outside it the adapter falls back to the original library).
	MinN           int
	MaxN           int
	PowerOfTwoOnly bool

	TestsPassed int
}

// MigrateLibrary synthesizes an adapter that implements the `from`
// library's API using the `to` accelerator, fuzz-validated on the overlap
// domain.
func MigrateLibrary(from, to *accel.Spec, numTests int, seed int64) (*Migration, error) {
	if numTests <= 0 {
		numTests = 10
	}
	mig := &Migration{
		From:           from,
		To:             to,
		ForwardOnly:    from.HasDirection && !to.HasDirection,
		MinN:           maxInt(from.MinN, to.MinN),
		MaxN:           minInt(from.MaxN, to.MaxN),
		PowerOfTwoOnly: from.PowerOfTwoOnly || to.PowerOfTwoOnly,
	}
	if mig.MinN > mig.MaxN {
		return nil, fmt.Errorf("core: %s and %s domains do not overlap", from.Name, to.Name)
	}

	// Fuzz sizes across the overlap, small first.
	var sizes []int
	for n := mig.MinN; n <= mig.MaxN && n <= 1024; n *= 2 {
		if !mig.PowerOfTwoOnly || n&(n-1) == 0 {
			sizes = append(sizes, n)
		}
	}
	if len(sizes) == 0 {
		sizes = []int{mig.MinN}
	}

	rng := rand.New(rand.NewSource(seed))
	alive := behave.Sketches()
	for i := 0; i < numTests; i++ {
		n := sizes[i%len(sizes)]
		in := make([]complex128, n)
		for j := range in {
			in[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want, err := from.Run(in, fft.Forward)
		if err != nil {
			return nil, err
		}
		got, err := to.Run(in, fft.Forward)
		if err != nil {
			return nil, err
		}
		var next []behave.PostOp
		for _, op := range alive {
			patched := append([]complex128(nil), got...)
			op.Apply(patched)
			if migClose(want, patched) {
				next = append(next, op)
			}
		}
		alive = next
		if len(alive) == 0 {
			return nil, fmt.Errorf("core: no behavioral patch makes %s match %s", to.Name, from.Name)
		}
	}
	mig.Post = alive[0]
	mig.TestsPassed = numTests
	return mig, nil
}

// migClose reports whether b matches a within a norm-scaled tolerance; a
// NaN or infinite component on either side never matches (an infinite a
// would make the limit infinite).
func migClose(a, b []complex128) bool {
	norm := 0.0
	for _, v := range a {
		if m := math.Hypot(real(v), imag(v)); m > norm {
			norm = m
		}
	}
	if math.IsInf(norm, 0) {
		return false
	}
	limit := 2e-3 * (1 + norm)
	for i := range a {
		d := a[i] - b[i]
		if !(math.Hypot(real(d), imag(d)) <= limit) {
			return false
		}
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// EmitC renders the migration as a drop-in replacement for the library
// call (same Figure 3 shape: range check, accelerator call, behavioral
// patch, library fallback).
func (m *Migration) EmitC() string {
	var b strings.Builder
	fromArgs := make([]string, 0, len(m.From.Params))
	var dirParam string
	for _, p := range m.From.Params {
		fromArgs = append(fromArgs, p.Name)
		if p.Role == accel.RoleDirection {
			dirParam = p.Name
		}
	}
	fmt.Fprintf(&b, "/* %s implemented via %s — synthesized by FACC (library migration).\n",
		m.From.CallName, m.To.CallName)
	fmt.Fprintf(&b, " * Validated by IO-equivalence on %d fuzzed inputs. */\n", m.TestsPassed)
	var sig []string
	for _, p := range m.From.Params {
		if p.Type.Kind == minic.TPointer {
			sig = append(sig, "float_complex* "+p.Name)
		} else {
			sig = append(sig, "int "+p.Name)
		}
	}
	fmt.Fprintf(&b, "void %s_accel(%s) {\n", m.From.CallName, strings.Join(sig, ", "))
	var conds []string
	if m.PowerOfTwoOnly {
		conds = append(conds, "is_power_of_two(length)")
	}
	conds = append(conds,
		fmt.Sprintf("length >= %d", m.MinN),
		fmt.Sprintf("length <= %d", m.MaxN))
	if m.ForwardOnly && dirParam != "" {
		conds = append(conds, fmt.Sprintf("%s == %d", dirParam, accel.FFTWForward))
	}
	fmt.Fprintf(&b, "    if (%s) {\n", strings.Join(conds, " && "))
	// Build the target call from its own parameter roles.
	var toArgs []string
	for _, p := range m.To.Params {
		switch p.Role {
		case accel.RoleInput:
			toArgs = append(toArgs, m.From.ParamByRole(accel.RoleInput).Name)
		case accel.RoleOutput:
			toArgs = append(toArgs, m.From.ParamByRole(accel.RoleOutput).Name)
		case accel.RoleLength:
			toArgs = append(toArgs, "length")
		case accel.RoleDirection:
			toArgs = append(toArgs, fmt.Sprintf("%d", accel.FFTWForward))
		case accel.RoleFlags:
			toArgs = append(toArgs, "0")
		}
	}
	fmt.Fprintf(&b, "        %s(%s);\n", m.To.CallName, strings.Join(toArgs, ", "))
	outName := m.From.ParamByRole(accel.RoleOutput).Name
	for _, line := range m.Post.CCode(outName, "length") {
		fmt.Fprintf(&b, "        %s\n", line)
	}
	fmt.Fprintf(&b, "    } else {\n")
	fmt.Fprintf(&b, "        %s(%s); /* fallback to the original library */\n",
		m.From.CallName, strings.Join(fromArgs, ", "))
	fmt.Fprintf(&b, "    }\n}\n")
	return b.String()
}
