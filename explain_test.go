package facc

import (
	"bytes"
	"strings"
	"testing"
)

// explainGolden pins the full -explain provenance report for a translation
// unit with one rejected candidate region (scale: binds plausibly, fails
// fuzzing with a counterexample) and one replaced region (fft: survives
// fuzzing and is accepted). The journal deliberately records no wall-clock
// timestamps in the report path and the fuzz seed is fixed, so this output
// is byte-stable; if it changes, the provenance semantics changed.
const explainGolden = `provenance: two.c → ffta

function scale — REJECTED (interface-incompatibility)
  bindings: 2 emitted, 2 pruned (range-exp2 ×2)
  candidate 1: in=struct(x,re=0,im=1) out=struct(x,re=0,im=1) len=n(n) inplace
    fuzz: behavior-mismatch after 1 test(s)
    killed by: case 0 (behavior-mismatch)
    counterexample: n=64 input[64]=(1-0.309i) (1.33+0.454i) (1.52+1.21i) (0.148-0.847i)…
  candidate 2: in=struct(x,re=1,im=0) out=struct(x,re=1,im=0) len=n(n) inplace
    fuzz: behavior-mismatch after 1 test(s)
    killed by: case 0 (behavior-mismatch)
    counterexample: n=64 input[64]=(1-0.309i) (1.33+0.454i) (1.52+1.21i) (0.148-0.847i)…

function fft — REPLACED
  bindings: 2 emitted, 2 pruned (range-exp2 ×2)
  candidate 1: in=struct(x,re=0,im=1) out=struct(x,re=0,im=1) len=n(n) inplace
    fuzz: survived after 4 test(s)
    accepted: post=denormalize(*N); check=1
`

func TestExplainReportGolden(t *testing.T) {
	src := `
#include <math.h>
typedef struct { double re; double im; } cpx;
void scale(cpx* x, int n) {
    for (int i = 0; i < n; i++) {
        x[i].re = x[i].re * 2.0;
        x[i].im = x[i].im * 2.0;
    }
}` + strings.TrimPrefix(quickstartSrc, `
#include <math.h>
typedef struct { double re; double im; } cpx;`)

	j := NewEvents()
	res, err := Compile("two.c", src, TargetFFTA, Options{
		ProfileValues: map[string][]int64{"n": {64, 128, 256}},
		NumTests:      4,
		Events:        j,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Function() != "fft" {
		t.Fatalf("fixture drifted: ok=%v fn=%q (%s)",
			res.OK(), res.Function(), res.FailReason())
	}

	var buf bytes.Buffer
	if err := j.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != explainGolden {
		t.Errorf("explain report drifted from golden.\n--- got ---\n%s--- want ---\n%s",
			got, explainGolden)
	}

	// The JSONL export of the same journal carries timing (at_us) and
	// sequence numbers that the report elides.
	var jl bytes.Buffer
	if err := j.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(jl.String(), "\n")
	for _, want := range []string{`"seq":1`, `"kind":"compile"`} {
		if !strings.Contains(first, want) {
			t.Errorf("journal JSONL first line missing %s: %s", want, first)
		}
	}
}
