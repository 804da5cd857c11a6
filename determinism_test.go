package facc

// Determinism regression: running a candidate's IO cases in parallel must
// be externally unobservable. Compiling the whole supported corpus
// exhaustively with Workers=1 and Workers=8 must yield byte-identical
// adapters and identical candidate events (every verdict and kill
// attribution — only the oracle cache-stats events and the work the
// events charge may differ, since cases run past a kill are real work).
// This is the contract that lets -j default to GOMAXPROCS.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"facc/internal/accel"
	"facc/internal/bench"
	"facc/internal/core"
	"facc/internal/obs"
	"facc/internal/synth"
)

// comparable returns evs without the oracle events and with the fields
// a worker count may change zeroed: Seq and AtUs, and the work fields
// (cases started, steps, oracle hits and misses), which count the cases
// run past a kill.
func comparable(evs []obs.Event) []obs.Event {
	var out []obs.Event
	for _, ev := range evs {
		if ev.Kind == obs.KindOracle {
			continue
		}
		ev.Seq, ev.AtUs = 0, 0
		ev.Started, ev.Steps, ev.OracleHits, ev.OracleMisses = 0, 0, 0, 0
		out = append(out, ev)
	}
	return out
}

const reportsGoldenPath = "testdata/reports_golden.txt"

// TestSynthesisDeterminismAcrossWorkers compiles the supported corpus
// exhaustively (every candidate fuzzed; the adapter is still the first
// survivor) once at Workers=1 and once at Workers=8, and requires the
// same outcome and adapter bytes for every (program, target) pair, the
// same events — verdicts, counterexamples and kill attribution — but
// for the oracle events and the work fields, and the same search fold:
// a case run past its candidate's kill never decides anything. The
// Workers=1 pass's -explain, -costs and -search-report text is pinned
// in testdata/reports_golden.txt.
func TestSynthesisDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism regression compiles the whole corpus twice; skipped in -short")
	}
	type outcome struct {
		ok      bool
		reason  string
		adapter string
	}
	compileAll := func(workers int) (map[string]outcome, *Events) {
		outcomes := map[string]outcome{}
		ev := NewEvents()
		for _, bm := range bench.SupportedSuite() {
			for _, target := range differentialTargets {
				spec, err := accel.SpecByName(target)
				if err != nil {
					t.Fatal(err)
				}
				comp, err := core.CompileSource(context.Background(), bm.File, bm.Source(), spec, core.Options{
					Entry:         bm.Entry,
					ProfileValues: bm.ProfileValues,
					Events:        ev,
					Synth:         synth.Options{NumTests: 4, Workers: workers, ExhaustAll: true},
				})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", bm.Name, target, workers, err)
				}
				var o outcome
				if s := comp.Success(); s != nil {
					o.ok, o.adapter = true, s.AdapterC
				} else {
					o.reason = comp.FailReason()
				}
				outcomes[bm.Name+"/"+target] = o
			}
		}
		return outcomes, ev
	}

	seq, seqEv := compileAll(1)
	par, parEv := compileAll(8)

	if len(seq) != len(par) {
		t.Fatalf("outcome count differs: %d sequential vs %d parallel", len(seq), len(par))
	}
	accepted := 0
	for key, s := range seq {
		p := par[key]
		if s.ok != p.ok {
			t.Errorf("%s: OK differs: sequential %v vs workers=8 %v (%s / %s)",
				key, s.ok, p.ok, s.reason, p.reason)
			continue
		}
		if s.adapter != p.adapter {
			t.Errorf("%s: adapter bytes differ between Workers=1 and Workers=8", key)
		}
		if s.ok {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("no adapters accepted; determinism check is vacuous")
	}

	e1, e8 := comparable(seqEv.Snapshot()), comparable(parEv.Snapshot())
	if len(e1) != len(e8) {
		t.Errorf("workers=8 recorded %d events, workers=1 %d", len(e8), len(e1))
	}
	kills := 0
	for i := range e1 {
		if e1[i].Killed() {
			kills++
		}
		if i < len(e8) && e1[i] != e8[i] {
			t.Errorf("event %d differs:\n  workers=1: %+v\n  workers=8: %+v", i, e1[i], e8[i])
			break
		}
	}
	if kills == 0 {
		t.Error("no kill events; the kill attribution check is vacuous")
	}
	s1, s8 := obs.FoldSearch(seqEv.Snapshot()), obs.FoldSearch(parEv.Snapshot())
	if j1, j8 := fmt.Sprintf("%+v", *s1), fmt.Sprintf("%+v", *s8); j1 != j8 {
		t.Errorf("search folds differ:\n  workers=1: %s\n  workers=8: %s", j1, j8)
	}

	var reports bytes.Buffer
	fmt.Fprintf(&reports, "=== -explain ===\n")
	if err := seqEv.WriteReport(&reports); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&reports, "=== -costs ===\n")
	if err := seqEv.WriteCostReport(&reports); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&reports, "=== -search-report ===\n")
	if err := seqEv.WriteSearchReport(&reports, 10); err != nil {
		t.Fatal(err)
	}
	checkTextGolden(t, reportsGoldenPath, reports.String())

	t.Logf("determinism verified on %d outcomes (%d accepted adapters, %d kill events)",
		len(seq), accepted, kills)
}
