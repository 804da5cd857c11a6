package facc

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const costReportGoldenPath = "testdata/cost_report_golden.txt"

// checkTextGolden compares got with the golden file at path, or rewrites
// the file under -update.
func checkTextGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestCostReportGolden pins the -costs report and the facc_ledger_* and
// facc_search_* Prometheus families for the two-region unit the explain
// and search goldens use: scale's two candidates die on case 0, fft's
// first candidate survives all four cases and wins. Workers=1 keeps the
// speculative work to what a sequential run starts.
func TestCostReportGolden(t *testing.T) {
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

	ev := NewEvents()
	res, err := Compile("two.c", src, TargetFFTA, Options{
		ProfileValues: map[string][]int64{"n": {64, 128, 256}},
		NumTests:      4,
		Workers:       1,
		Events:        ev,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Function() != "fft" {
		t.Fatalf("fixture drifted: ok=%v fn=%q (%s)",
			res.OK(), res.Function(), res.FailReason())
	}

	var buf bytes.Buffer
	if err := ev.WriteCostReport(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ev.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkTextGolden(t, costReportGoldenPath, buf.String())
}
