package facc

import (
	"bytes"
	"strings"
	"testing"
)

// searchReportGolden pins the full -search-report output for the same
// two-region translation unit the explain golden uses: scale's two
// binding candidates both die on case 0 (two distinct binding families
// — the discriminating-input ranking's acceptance property), fft's
// first candidate survives and wins. Workers=1 and the fixed fuzz seed
// make this byte-stable; if it drifts, kill-attribution semantics
// changed.
const searchReportGolden = `search funnel: 8 generated, 4 pre-filtered, 3 dispatched, 2 killed, 1 survived, 1 winner(s)

kill depth (0-based case index at death):
  case 0: 2 kill(s)

mismatch kinds:
  behavior-mismatch: 2

top discriminating inputs:
   1. [ffta] seed=424242 n=64 case=0 — 2 kill(s) across 2 binding family(ies)
cases killing more than one binding family: 1

per target:
  ffta       generated 8, dispatched 3, killed 2, survived 1, winners 1, multi-family cases 1
`

func TestSearchReportGolden(t *testing.T) {
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

	k := NewKillTable()
	res, err := Compile("two.c", src, TargetFFTA, Options{
		ProfileValues: map[string][]int64{"n": {64, 128, 256}},
		NumTests:      4,
		Workers:       1, // kill counts are only deterministic sequentially
		Kills:         k,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Function() != "fft" {
		t.Fatalf("fixture drifted: ok=%v fn=%q (%s)",
			res.OK(), res.Function(), res.FailReason())
	}

	var buf bytes.Buffer
	if err := k.WriteSearchReport(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != searchReportGolden {
		t.Errorf("search report drifted from golden.\n--- got ---\n%s--- want ---\n%s",
			got, searchReportGolden)
	}
}

// TestKillTableAbsentNoChange: the observatory is measurement only —
// the same compile with and without a kill table produces
// byte-identical adapter C.
func TestKillTableAbsentNoChange(t *testing.T) {
	adapter := func(kills *KillTable) string {
		res, err := Compile("q.c", quickstartSrc, TargetFFTA, Options{
			ProfileValues: map[string][]int64{"n": {64, 128, 256}},
			NumTests:      4,
			Workers:       1,
			Kills:         kills,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("no adapter: %s", res.FailReason())
		}
		return res.AdapterC()
	}
	with := adapter(NewKillTable())
	without := adapter(nil)
	if with != without {
		t.Error("attaching a kill table changed the synthesized adapter")
	}
}
