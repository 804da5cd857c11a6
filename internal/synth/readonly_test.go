package synth

// Read-only inputs: the oracle cache's memo hands one Case.Input slice to
// every candidate, target and case that draws that signal, so no
// consumer of a case may write its input.

import (
	"math"
	"testing"

	"facc/internal/accel"
	"facc/internal/binding"
	"facc/internal/fft"
	"facc/internal/interp"
	"facc/internal/iogen"
	"facc/internal/minic"
)

// layoutsSrc declares one parameter per array layout writeArray encodes.
const layoutsSrc = `
#include <complex.h>
typedef struct { double re; double im; } cpx;
void f(double complex* c, cpx* s, double* re, double* im, int n) {}
`

// TestConsumersLeaveInputUnwritten runs every consumer of a generated
// case on it and then checks every bit of the case's input.
func TestConsumersLeaveInputUnwritten(t *testing.T) {
	cand := &binding.Candidate{Spec: accel.NewFFTA(),
		Length: binding.LengthBinding{Param: "n", Conv: binding.ConvIdentity}}
	gen := iogen.New(424242, cand, pow2Profile("n", 64))
	if !gen.Viable() {
		t.Fatal("no 64-point case")
	}
	tc := gen.Case(0)
	want := append([]complex128(nil), tc.Input...)
	check := func(consumer string) {
		t.Helper()
		for i := range want {
			if math.Float64bits(real(tc.Input[i])) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(tc.Input[i])) != math.Float64bits(imag(want[i])) {
				t.Fatalf("%s wrote input[%d]: %v, was %v", consumer, i, tc.Input[i], want[i])
			}
		}
	}

	// The device models.
	for _, run := range []struct {
		spec *accel.Spec
		dir  fft.Direction
	}{
		{accel.NewFFTA(), fft.Forward},
		{accel.NewPowerQuad(), fft.Forward},
		{accel.NewFFTWLib(), fft.Forward},
		{accel.NewFFTWLib(), fft.Inverse},
	} {
		if _, err := run.spec.Run(tc.Input, run.dir); err != nil {
			t.Fatalf("%s %v: %v", run.spec.Name, run.dir, err)
		}
		check(run.spec.Name + " " + run.dir.String() + " Spec.Run")
	}

	// Encoding into the user's arrays, in every layout.
	f, err := minic.ParseAndCheck("layouts.c", layoutsSrc)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	m, err := interp.NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	arrays := map[string]interp.Value{}
	for _, prm := range f.Func("f").Params {
		if pt := prm.Type.Decay(); pt.Kind == minic.TPointer {
			if arrays[prm.Name], err = m.NewArray(prm.Name, pt.Elem, len(want)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, b := range []binding.ArrayBinding{
		{Layout: binding.LayoutC99, Param: "c"},
		{Layout: binding.LayoutStruct, Param: "s", ReOff: 0, ImOff: 1},
		{Layout: binding.LayoutSplit, ReParam: "re", ImParam: "im"},
	} {
		if err := writeArray(m, b, arrays, tc.Input); err != nil {
			t.Fatalf("writeArray %s: %v", b.Key(), err)
		}
		check("writeArray " + b.Key())
		// The encoding must have happened, or the check above is vacuous.
		back, err := readArray(m, b, arrays, len(want))
		if err != nil || !vectorsClose(back, want, 0) {
			t.Fatalf("writeArray %s did not encode the input (err %v)", b.Key(), err)
		}
	}

	// The oracle key and the journal's rendering.
	iogen.CaseDigest(tc)
	check("CaseDigest")
	renderCase(tc)
	check("renderCase")
}
