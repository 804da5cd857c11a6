package facc

// Determinism regression: running a candidate's IO cases in parallel must
// be externally unobservable. Compiling the whole supported corpus with
// Workers=1 and Workers=8 must yield byte-identical adapters, an
// identical provenance journal (the winner, its verdicts, and every event
// up to it — only the oracle cache-stats event may differ, since cases
// run past a kill are real work) and an identical search record. This is
// the contract that lets -j default to GOMAXPROCS.

import (
	"fmt"
	"testing"

	"facc/internal/bench"
	"facc/internal/obs"
)

// journalKey renders a journal event for cross-worker-count comparison:
// Seq is re-derived from the filtered position (oracle cache-stats events
// are dropped — their hit/miss split legitimately reflects cases run past
// a kill), AtUs is wall-clock and excluded.
func journalKey(events []obs.JournalEvent) []string {
	var keys []string
	for _, ev := range events {
		if ev.Kind == obs.KindOracle {
			continue
		}
		keys = append(keys, fmt.Sprintf("%d|%s|%s|%s|%s|%s|%d|%s|%s",
			len(keys), ev.Kind, ev.Function, ev.Candidate, ev.Heuristic,
			ev.Outcome, ev.Tests, ev.Counterexample, ev.Detail))
	}
	return keys
}

// TestSynthesisDeterminismAcrossWorkers compiles the supported corpus
// once at Workers=1 and once at Workers=8, each pass with a journal and a
// kill table, and requires the same outcome, adapter bytes and journal
// for every (program, target) pair, the same kill events (every field but
// Steps, which counts oracle misses and so depends on which cases ran
// past an earlier kill) and the same funnels: a case run past its
// candidate's kill is never recorded.
func TestSynthesisDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism regression compiles the whole corpus twice; skipped in -short")
	}
	type outcome struct {
		ok      bool
		reason  string
		adapter string
		journal []string
	}
	compileAll := func(workers int) (map[string]outcome, *KillTable) {
		out := map[string]outcome{}
		kills := NewKillTable()
		for _, bm := range bench.SupportedSuite() {
			for _, target := range differentialTargets {
				j := obs.NewJournal()
				res, err := Compile(bm.File, bm.Source(), target, Options{
					Entry:         bm.Entry,
					ProfileValues: bm.ProfileValues,
					NumTests:      4,
					Workers:       workers,
					Journal:       j,
					Kills:         kills,
				})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", bm.Name, target, workers, err)
				}
				o := outcome{ok: res.OK(), journal: journalKey(j.Events())}
				if o.ok {
					o.adapter = res.AdapterC()
				} else {
					o.reason = res.FailReason()
				}
				out[bm.Name+"/"+target] = o
			}
		}
		return out, kills
	}

	seq, seqKills := compileAll(1)
	par, parKills := compileAll(8)

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
		if len(s.journal) != len(p.journal) {
			t.Errorf("%s: journal length differs: %d vs %d", key, len(s.journal), len(p.journal))
			continue
		}
		for i := range s.journal {
			if s.journal[i] != p.journal[i] {
				t.Errorf("%s: journal event %d differs:\n  workers=1: %s\n  workers=8: %s",
					key, i, s.journal[i], p.journal[i])
				break
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no adapters accepted; determinism check is vacuous")
	}

	e1, e8 := seqKills.Events(), parKills.Events()
	if len(e1) == 0 {
		t.Error("no kill events; the kill-table check is vacuous")
	}
	if len(e1) != len(e8) {
		t.Errorf("workers=8 recorded %d kill events, workers=1 %d", len(e8), len(e1))
	}
	for i := 0; i < len(e1) && i < len(e8); i++ {
		a, b := e1[i], e8[i]
		a.Steps, b.Steps = 0, 0
		if a != b {
			t.Errorf("kill event %d differs:\n  workers=1: %+v\n  workers=8: %+v", i, a, b)
			break
		}
	}
	if f1, f8 := fmt.Sprint(seqKills.Funnels()), fmt.Sprint(parKills.Funnels()); f1 != f8 {
		t.Errorf("funnels differ:\n  workers=1: %s\n  workers=8: %s", f1, f8)
	}
	t.Logf("determinism verified on %d outcomes (%d accepted adapters, %d kill events)",
		len(seq), accepted, len(e1))
}
