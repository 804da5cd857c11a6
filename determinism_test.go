package facc

// Determinism regression: running a candidate's IO cases in parallel must
// be externally unobservable. Compiling the whole supported corpus with
// Workers=1 and Workers=8 must yield byte-identical adapters and an
// identical provenance journal (the winner, its verdicts, and every event
// up to it — only the oracle cache-stats event may differ, since cases
// run past a kill are real work). This is the contract that lets -j
// default to GOMAXPROCS.

import (
	"fmt"
	"sort"
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
	compileAll := func(workers int) map[string]outcome {
		out := map[string]outcome{}
		for _, bm := range bench.SupportedSuite() {
			for _, target := range differentialTargets {
				j := obs.NewJournal()
				res, err := Compile(bm.File, bm.Source(), target, Options{
					Entry:         bm.Entry,
					ProfileValues: bm.ProfileValues,
					NumTests:      4,
					Workers:       workers,
					Journal:       j,
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
		return out
	}

	seq := compileAll(1)
	par := compileAll(8)

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
	t.Logf("determinism verified on %d outcomes (%d accepted adapters)", len(seq), accepted)
}

// fateKey projects a journal down to candidate fates: which candidates
// were emitted, pruned, fuzz-killed, survived and accepted —
// with the case-level attribution (test count at death, counterexample,
// detail) removed. Counterexample replay exists precisely to kill losers
// at an *earlier* discriminating case, so those fields legitimately vary
// across pool configurations; everything else about the search outcome
// must not.
func fateKey(events []obs.JournalEvent) []string {
	var keys []string
	for _, ev := range events {
		if ev.Kind == obs.KindOracle {
			continue
		}
		keys = append(keys, fmt.Sprintf("%d|%s|%s|%s|%s|%s",
			len(keys), ev.Kind, ev.Function, ev.Candidate, ev.Heuristic, ev.Outcome))
	}
	return keys
}

// TestSynthesisDeterminismMatrix extends the worker-count determinism
// contract to the replay-first search: Workers ∈ {1, 8} × CexPool ∈
// {absent, present-empty (fresh case order), present-primed (replay
// first)}. The invariants, from strongest to weakest:
//
//   - adapters: byte-identical across ALL cells. Replay only permutes
//     each candidate's own deterministic case batch; survival over a
//     fixed case set is order-independent, so the pool can never change
//     which adapter wins.
//   - journals: byte-identical across worker counts within each pool
//     configuration (each compile replays the same pool snapshot), and
//     byte-identical between the absent and present-empty columns (an
//     empty pool has a nil replay rank — exactly the fresh case order).
//   - candidate fates: identical across ALL cells. Only the case-level
//     kill attribution (which discriminating case, after how many
//     tests) may differ under replay — that difference is the speedup.
//   - the search record: within each pool configuration, the kill
//     events (every field but Steps, which counts oracle misses and so
//     depends on which cases ran past an earlier kill) and the funnels
//     are identical across worker counts, and so are the entries of a
//     pool primed at Workers=8 and one primed at Workers=1 (timestamps
//     aside): a case run past its candidate's kill is never recorded.
func TestSynthesisDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix compiles the whole corpus eight times; skipped in -short")
	}

	// Prime a pool the way a long-lived -cex-pool file accumulates: one
	// corpus pass recording every kill live.
	prime := func(workers int) *CexPool {
		pool := NewCexPool()
		for _, bm := range bench.SupportedSuite() {
			for _, target := range differentialTargets {
				if _, err := Compile(bm.File, bm.Source(), target, Options{
					Entry:         bm.Entry,
					ProfileValues: bm.ProfileValues,
					NumTests:      4,
					Workers:       workers,
					Cex:           pool,
				}); err != nil {
					t.Fatalf("priming %s/%s workers=%d: %v", bm.Name, target, workers, err)
				}
			}
		}
		return pool
	}
	primed := prime(1)
	if primed.Len() == 0 {
		t.Fatal("priming recorded no counterexamples; the replay cells would be vacuous")
	}
	poolKey := func(p *CexPool) []string {
		var keys []string
		for _, e := range p.Entries() {
			e.FirstSeenUnix, e.LastUsefulUnix = 0, 0
			keys = append(keys, fmt.Sprintf("%+v", e))
		}
		sort.Strings(keys)
		return keys
	}
	if w1, w8 := poolKey(primed), poolKey(prime(8)); fmt.Sprint(w1) != fmt.Sprint(w8) {
		t.Errorf("pool primed at workers=8 differs from workers=1:\n  workers=1: %v\n  workers=8: %v", w1, w8)
	}

	type outcome struct {
		ok      bool
		reason  string
		adapter string
		journal []string
		fates   []string
	}
	// pool returns a fresh Options.Cex per compile so every cell's
	// compiles see identical pool state at entry (live recording during
	// one compile must not leak into the next cell's comparison). Each
	// cell records into one kill table.
	type cellOut struct {
		out   map[string]outcome
		kills *KillTable
	}
	compileAll := func(workers int, pool func() *CexPool) cellOut {
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
					Cex:           pool(),
				})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", bm.Name, target, workers, err)
				}
				o := outcome{ok: res.OK(), journal: journalKey(j.Events()),
					fates: fateKey(j.Events())}
				if o.ok {
					o.adapter = res.AdapterC()
				} else {
					o.reason = res.FailReason()
				}
				out[bm.Name+"/"+target] = o
			}
		}
		return cellOut{out: out, kills: kills}
	}

	noPool := func() *CexPool { return nil }
	emptyPool := func() *CexPool { return NewCexPool() }
	primedPool := func() *CexPool { return primed.Clone() }
	cells := []struct {
		name string
		cellOut
	}{
		{"w1/no-pool", compileAll(1, noPool)},
		{"w8/no-pool", compileAll(8, noPool)},
		{"w1/empty-pool", compileAll(1, emptyPool)},
		{"w8/empty-pool", compileAll(8, emptyPool)},
		{"w1/replay", compileAll(1, primedPool)},
		{"w8/replay", compileAll(8, primedPool)},
	}

	base := cells[0].out
	accepted := 0
	for _, o := range base {
		if o.ok {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("no adapters accepted; matrix check is vacuous")
	}

	// Adapters and fates: identical everywhere.
	for _, cell := range cells[1:] {
		for key, b := range base {
			o := cell.out[key]
			if b.ok != o.ok {
				t.Errorf("%s %s: OK differs from w1/no-pool (%v vs %v; %s / %s)",
					cell.name, key, b.ok, o.ok, b.reason, o.reason)
				continue
			}
			if b.adapter != o.adapter {
				t.Errorf("%s %s: adapter bytes differ from w1/no-pool", cell.name, key)
			}
			if len(b.fates) != len(o.fates) {
				t.Errorf("%s %s: fate count differs: %d vs %d",
					cell.name, key, len(b.fates), len(o.fates))
				continue
			}
			for i := range b.fates {
				if b.fates[i] != o.fates[i] {
					t.Errorf("%s %s: candidate fate %d differs:\n  w1/no-pool: %s\n  %s: %s",
						cell.name, key, i, b.fates[i], cell.name, o.fates[i])
					break
				}
			}
		}
	}

	// Journals: byte-identical across worker counts per pool config, and
	// between the no-pool and empty-pool columns.
	sameJournals := func(aName string, a map[string]outcome, bName string, b map[string]outcome) {
		for key, ao := range a {
			bo := b[key]
			if len(ao.journal) != len(bo.journal) {
				t.Errorf("%s vs %s %s: journal length differs: %d vs %d",
					aName, bName, key, len(ao.journal), len(bo.journal))
				continue
			}
			for i := range ao.journal {
				if ao.journal[i] != bo.journal[i] {
					t.Errorf("%s vs %s %s: journal event %d differs:\n  %s\n  %s",
						aName, bName, key, i, ao.journal[i], bo.journal[i])
					break
				}
			}
		}
	}
	sameJournals(cells[0].name, cells[0].out, cells[1].name, cells[1].out) // no-pool: w1 == w8
	sameJournals(cells[2].name, cells[2].out, cells[3].name, cells[3].out) // empty:   w1 == w8
	sameJournals(cells[4].name, cells[4].out, cells[5].name, cells[5].out) // replay:  w1 == w8
	sameJournals(cells[0].name, cells[0].out, cells[2].name, cells[2].out) // empty rank == fresh order

	// Kill events and funnels: identical across worker counts per pool
	// config.
	for c := 0; c < len(cells); c += 2 {
		w1, w8 := cells[c], cells[c+1]
		e1, e8 := w1.kills.Events(), w8.kills.Events()
		if len(e1) == 0 {
			t.Errorf("%s: no kill events; the check is vacuous", w1.name)
		}
		if len(e1) != len(e8) {
			t.Errorf("%s: %d kill events, %s has %d", w8.name, len(e8), w1.name, len(e1))
		}
		for i := 0; i < len(e1) && i < len(e8); i++ {
			a, b := e1[i], e8[i]
			a.Steps, b.Steps = 0, 0
			if a != b {
				t.Errorf("%s kill event %d differs from %s:\n  %+v\n  %+v", w8.name, i, w1.name, b, a)
				break
			}
		}
		if f1, f8 := fmt.Sprint(w1.kills.Funnels()), fmt.Sprint(w8.kills.Funnels()); f1 != f8 {
			t.Errorf("%s funnels differ from %s:\n  %s\n  %s", w8.name, w1.name, f8, f1)
		}
	}

	t.Logf("matrix verified: %d outcomes x %d cells (%d accepted adapters, %d primed counterexamples)",
		len(base), len(cells), accepted, primed.Len())
}
