package synth

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"facc/internal/accel"
	"facc/internal/fft"
	"facc/internal/iogen"
	"facc/internal/minic"
	"facc/internal/obs"
)

// TestNilObsInstrumentationZeroAllocs asserts the disabled-tracing property
// the fuzz loop relies on: every instrumentation call testCandidate makes —
// child-span creation, attribute chaining, metric lookups, observations,
// End — is a free no-op on a nil span. If any of these ever allocates, the
// hot path pays for observability even when it is switched off.
func TestNilObsInstrumentationZeroAllocs(t *testing.T) {
	var sp *obs.Span
	allocs := testing.AllocsPerRun(500, func() {
		fsp := sp.Child("fuzz").Str("binding", "key").Int("candidate", 1)
		fsp.Str("outcome", "fault").Str("fault", "out-of-bounds")
		m := fsp.Metrics()
		m.Counter("interp.ops").Add(1)
		m.Counter("synth.tests_run").Inc()
		m.Histogram("synth.tests_per_candidate", obs.CountBuckets).Observe(3)
		fsp.Int("tests", 3)
		fsp.End()
	})
	if allocs != 0 {
		t.Errorf("no-op tracer allocates %.0f per fuzz iteration, want 0", allocs)
	}
}

// TestNilJournalZeroAllocs: the candidate-event stream obeys the same
// contract. With none attached, record — the one event touchpoint of a
// fuzzed candidate — returns before rendering a candidate key (it must
// not even dereference the candidate), and the Events methods the
// pipeline calls are free no-ops on nil.
func TestNilJournalZeroAllocs(t *testing.T) {
	var ev *obs.Events
	allocs := testing.AllocsPerRun(500, func() {
		record(Options{}, "fft", nil, verdict{outcome: obs.OutcomeSurvived, tests: 10}, work{})
		ev.Record(obs.Event{Kind: obs.KindFuzz, Function: "fft"})
		ev.Scoped("trace").Record(obs.Event{Kind: obs.KindEmitted})
	})
	if allocs != 0 {
		t.Errorf("nil event stream allocates %.0f per fuzz iteration, want 0", allocs)
	}
}

// TestNilLedgerZeroAllocs: a candidate's work — started cases,
// interpreter steps, oracle hits and misses — rides on its one fuzz
// event, so with no stream attached charging it is free, for a decided
// candidate and for one a cancellation cut off alike.
func TestNilLedgerZeroAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(500, func() {
		record(Options{}, "fft", nil, verdict{outcome: obs.OutcomeSurvived, tests: 4},
			work{started: 4, steps: 200, hits: 1})
		record(Options{}, "fft", nil, verdict{}, work{started: 1, steps: 100})
	})
	if allocs != 0 {
		t.Errorf("nil event stream allocates %.0f per charged candidate, want 0", allocs)
	}
}

// TestNilKillTableZeroAllocsOnVerdictPath: a kill's attribution — its
// case signature and counterexample — is rendered only for an attached
// stream, so a killed candidate's verdict path allocates nothing
// without one.
func TestNilKillTableZeroAllocsOnVerdictPath(t *testing.T) {
	tc := iogen.Case{UserLen: 64, AccelLen: 64}
	allocs := testing.AllocsPerRun(500, func() {
		record(Options{}, "fft", nil, killedAt("behavior-mismatch", &tc, 0,
			"no post-behavioral sketch reproduces the user output"),
			work{started: 2, steps: 100, hits: 1})
		record(Options{}, "fft", nil, caseless("not-viable", "no test sizes"), work{})
	})
	if allocs != 0 {
		t.Errorf("nil event stream allocates %.0f per verdict, want 0", allocs)
	}
}

// TestCostFoldChargesStartedCases: at Workers=GOMAXPROCS a candidate is
// charged every case it started, those run past its kill included, so
// the cost fold's totals match the tracer's counters, which count the
// same cases: tests, oracle hits and misses, and interpreter steps.
func TestCostFoldChargesStartedCases(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", dirFlagSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	sp := tr.Span("synthesize")
	ev := obs.NewEvents()
	res, err := Synthesize(context.Background(), f, f.Func("fft_dir"), accel.NewFFTWLib(),
		pow2Profile("n", 16, 32, 64), Options{NumTests: 8, Workers: runtime.GOMAXPROCS(0),
			ExhaustAll: true, Obs: sp, Events: ev})
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Adapter == nil || res.Tested < 2 {
		t.Fatalf("fixture drifted: adapter=%v tested=%d", res.Adapter != nil, res.Tested)
	}
	c := tr.Metrics().Counters()
	n, sum := obs.FoldCosts(ev.Snapshot())
	tot := sum.Total
	if n != res.Tested {
		t.Errorf("%d accounts, want one per tested candidate (%d)", n, res.Tested)
	}
	if got := tot.UsefulTests + tot.SpeculativeTests; got != c["synth.tests_run"] || got == 0 {
		t.Errorf("cost fold charges %d tests, synth.tests_run = %d", got, c["synth.tests_run"])
	}
	if tot.OracleHits != c["synth.oracle_hits"] || tot.OracleMisses != c["synth.oracle_misses"] {
		t.Errorf("cost fold charges %d hits / %d misses, counters read %d / %d",
			tot.OracleHits, tot.OracleMisses, c["synth.oracle_hits"], c["synth.oracle_misses"])
	}
	if got := tot.UsefulSteps + tot.SpeculativeSteps; got != c["interp.steps"] {
		t.Errorf("cost fold charges %d steps, interp.steps = %d", got, c["interp.steps"])
	}
	if tot.Verdicts[obs.VerdictWinner] != 1 {
		t.Errorf("verdicts = %v, want one winner", tot.Verdicts)
	}
}

// TestSynthesizeWithObsSpan: an attached span yields per-candidate fuzz
// spans (with test counts and outcomes) and the search-space counters.
func TestSynthesizeWithObsSpan(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	root := tr.Span("synthesize")
	res, err := Synthesize(context.Background(), f, f.Func("fft"), accel.NewFFTA(), pow2Profile("n"),
		Options{NumTests: 4, Obs: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	fuzz := tr.Find("fuzz")
	if len(fuzz) != res.Tested {
		t.Fatalf("%d fuzz spans, want one per tested candidate (%d)",
			len(fuzz), res.Tested)
	}
	survived := 0
	for _, sp := range fuzz {
		if sp.Attr("tests") == nil || sp.Attr("outcome") == nil {
			t.Errorf("fuzz span missing attributes: %v", sp.Attrs)
		}
		if sp.Attr("outcome") == "survived" {
			survived++
		}
	}
	if survived != res.Survivors {
		t.Errorf("%d survived spans, want %d", survived, res.Survivors)
	}
	c := tr.Metrics().Counters()
	if c["synth.candidates_tested"] != int64(res.Tested) {
		t.Errorf("synth.candidates_tested = %d, want %d",
			c["synth.candidates_tested"], res.Tested)
	}
	if c["synth.winners"] != 1 {
		t.Errorf("synth.winners = %d, want 1", c["synth.winners"])
	}
	if c["interp.ops"] == 0 {
		t.Error("interpreter op counter not published")
	}
	if c["accel.runs.ffta"] != 0 {
		t.Error("spec not instrumented here; accel counter should be absent")
	}
}

// TestSynthesizeKillAttribution: with an event stream attached, every
// non-survivor's fuzz event carries a kill attribution consistent with
// the search funnel, the explain report's "killed by" line, and the
// case-signature convention.
func TestSynthesizeKillAttribution(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatal(err)
	}
	ev := obs.NewEvents()
	res, err := Synthesize(context.Background(), f, f.Func("fft"), accel.NewFFTA(), pow2Profile("n"),
		Options{NumTests: 4, Workers: 1, ExhaustAll: true, Events: ev})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	sum := obs.FoldSearch(ev.Snapshot())
	if sum == nil {
		t.Fatal("no search summary despite an attached stream")
	}
	if sum.Dispatched != int64(res.Tested) {
		t.Errorf("dispatched = %d, want res.Tested = %d", sum.Dispatched, res.Tested)
	}
	if sum.Survived != int64(res.Survivors) {
		t.Errorf("survived = %d, want res.Survivors = %d", sum.Survived, res.Survivors)
	}
	if sum.Winners != 1 {
		t.Errorf("winners = %d, want 1", sum.Winners)
	}
	if sum.Generated < sum.Dispatched {
		t.Errorf("generated (%d) < dispatched (%d): funnel head lost hypotheses",
			sum.Generated, sum.Dispatched)
	}
	// Every dispatched candidate either survived or was killed.
	if got := sum.Killed + sum.Survived; got != sum.Dispatched {
		t.Errorf("killed (%d) + survived (%d) != dispatched (%d)",
			sum.Killed, sum.Survived, sum.Dispatched)
	}

	// Each kill names its function, target, candidate and family, its
	// case signature follows the convention, and a verdict with a
	// mismatch dies at the case -explain's "killed by" line names.
	kills := 0
	for _, e := range ev.Snapshot() {
		if !e.Killed() {
			continue
		}
		kills++
		if e.Function != "fft" || e.Target != "ffta" {
			t.Fatalf("kill mis-attributed: %+v", e)
		}
		if e.Family == "" || e.Candidate == "" {
			t.Fatalf("kill missing family/candidate: %+v", e)
		}
		if e.Case >= 0 {
			want := fmt.Sprintf("seed=%d n=%d case=%d", e.Seed, e.Len, e.Case)
			if e.CaseSig != want {
				t.Errorf("case sig = %q, want %q", e.CaseSig, want)
			}
			if e.Steps <= 0 {
				t.Errorf("kill at case %d charged %d interp steps, want > 0", e.Case, e.Steps)
			}
		}
		if e.Mismatch != "" && e.Case != e.Tests-1 {
			t.Errorf("explain says %s died at case %d, its kill attribution says %d",
				e.Candidate, e.Tests-1, e.Case)
		}
	}
	if kills == 0 || int64(kills) != sum.Killed {
		t.Errorf("kill events = %d, search fold killed = %d", kills, sum.Killed)
	}
}

// TestKillTableDoesNotPerturbSearch: attaching the event stream must not
// change what is synthesized — adapters are byte-identical with and
// without one, at Workers=1 and Workers=8.
func TestKillTableDoesNotPerturbSearch(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatal(err)
	}
	var baseline string
	for _, cfg := range []struct {
		workers int
		ev      *obs.Events
	}{
		{1, nil}, {1, obs.NewEvents()}, {8, nil}, {8, obs.NewEvents()},
	} {
		res, err := Synthesize(context.Background(), f, f.Func("fft"), accel.NewFFTA(),
			pow2Profile("n"), Options{NumTests: 4, Workers: cfg.workers, Events: cfg.ev})
		if err != nil {
			t.Fatal(err)
		}
		if res.Adapter == nil {
			t.Fatalf("workers=%d events=%v: no adapter", cfg.workers, cfg.ev != nil)
		}
		key := res.Adapter.Cand.Key()
		if baseline == "" {
			baseline = key
		} else if key != baseline {
			t.Errorf("workers=%d events=%v: winner %q differs from baseline %q",
				cfg.workers, cfg.ev != nil, key, baseline)
		}
	}
}

// TestKillTableDeterministicSequential: at Workers=1 the event stream is
// fully deterministic, the work each fuzz event charges included — two
// runs record identical events but for their timestamps.
func TestKillTableDeterministicSequential(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []obs.Event {
		ev := obs.NewEvents()
		if _, err := Synthesize(context.Background(), f, f.Func("fft"), accel.NewFFTA(),
			pow2Profile("n"), Options{NumTests: 4, Workers: 1, ExhaustAll: true, Events: ev}); err != nil {
			t.Fatal(err)
		}
		var evs []obs.Event
		for _, e := range ev.Snapshot() {
			e.AtUs = 0
			evs = append(evs, e)
		}
		return evs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("event %d differs:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

// TestCancelledCandidateBooksUndecided: a candidate cut off by a compile
// cancellation records a fuzz event with no outcome. The cost ledger
// books the case it started as undecided work, the search observatory
// counts it dispatched but neither killed nor surviving, and -explain
// does not list it.
func TestCancelledCandidateBooksUndecided(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := accel.NewFFTA()
	spec.Exec = func(in []complex128, dir fft.Direction) ([]complex128, error) {
		cancel() // the compile is cancelled during the first case
		return spec.Simulate(in, dir)
	}
	ev := obs.NewEvents()
	_, err = Synthesize(ctx, f, f.Func("fft"), spec, pow2Profile("n"),
		Options{NumTests: 4, Workers: 1, Events: ev})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	evs := ev.Snapshot()
	var fuzz []obs.Event
	for _, e := range evs {
		if e.Kind == obs.KindFuzz {
			fuzz = append(fuzz, e)
		}
	}
	if len(fuzz) != 1 || fuzz[0].Outcome != "" || fuzz[0].Started != 1 ||
		fuzz[0].OracleHits+fuzz[0].OracleMisses != 1 {
		t.Fatalf("fuzz events = %+v, want one with no outcome and one started case", fuzz)
	}
	n, costs := obs.FoldCosts(evs)
	if n != 1 || costs.Total.Verdicts["undecided"] != 1 || costs.Total.SpeculativeTests != 1 {
		t.Errorf("cost fold: %d account(s), %+v; want one undecided case", n, costs.Total)
	}
	if s := obs.FoldSearch(evs); s == nil || s.Dispatched != 1 || s.Killed+s.Survived != 0 {
		t.Errorf("search fold = %+v, want 1 dispatched, none killed or surviving", s)
	}
	var report strings.Builder
	if err := ev.WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(report.String(), "candidate 1:") {
		t.Errorf("-explain lists the cut-off candidate:\n%s", report.String())
	}
}
