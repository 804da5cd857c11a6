package synth

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/minic"
	"facc/internal/obs"
)

// eventSig renders the deterministic fields of an event — everything but
// its timing and the work fields, which count the cases run past a kill.
// Parallel cases promise these match a sequential run byte for byte.
func eventSig(ev obs.Event) string {
	ev.AtUs = 0
	ev.Started, ev.Steps, ev.OracleHits, ev.OracleMisses = 0, 0, 0, 0
	return fmt.Sprintf("%+v", ev)
}

// journalSigs drops the oracle-stats event (its hit/miss split legitimately
// varies with the cases run past a kill) and renders the rest.
func journalSigs(ev *obs.Events) []string {
	var out []string
	for _, e := range ev.Snapshot() {
		if e.Kind == obs.KindOracle {
			continue
		}
		out = append(out, eventSig(e))
	}
	return out
}

// killEvents returns the fuzz events of killed candidates.
func killEvents(ev *obs.Events) []obs.Event {
	var out []obs.Event
	for _, e := range ev.Snapshot() {
		if e.Killed() {
			out = append(out, e)
		}
	}
	return out
}

func synthAtWorkers(t *testing.T, src, entry string, spec *accel.Spec,
	prof func() *analysis.Profile, workers int, exhaust bool) (*Result, *obs.Events) {
	t.Helper()
	f, err := minic.ParseAndCheck("t.c", src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	j := obs.NewEvents()
	res, err := Synthesize(context.Background(), f, f.Func(entry), spec, prof(),
		Options{NumTests: 4, Events: j, Workers: workers, ExhaustAll: exhaust})
	if err != nil {
		t.Fatalf("synthesize (workers=%d): %v", workers, err)
	}
	return res, j
}

// TestPoolDeterministicAcrossWorkers is the core guarantee of the parallel
// case runner: for every worker count, the Result counts, the winning
// binding, and the recorded verdicts are identical to the
// sequential run.
func TestPoolDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		entry   string
		spec    func() *accel.Spec
		prof    func() *analysis.Profile
		exhaust bool
	}{
		{"ffta-first-winner", radix2Struct, "fft", accel.NewFFTA,
			func() *analysis.Profile { return pow2Profile("n") }, false},
		{"ffta-exhaust", radix2Struct, "fft", accel.NewFFTA,
			func() *analysis.Profile { return pow2Profile("n") }, true},
		{"fftw-direction-map", dirFlagSrc, "fft_dir", accel.NewFFTWLib,
			func() *analysis.Profile { return pow2Profile("n", 16, 32, 64) }, false},
		{"fftw-exhaust", dirFlagSrc, "fft_dir", accel.NewFFTWLib,
			func() *analysis.Profile { return pow2Profile("n", 16, 32, 64) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, refJ := synthAtWorkers(t, tc.src, tc.entry, tc.spec(), tc.prof, 1, tc.exhaust)
			refSigs := journalSigs(refJ)
			for _, workers := range []int{2, 4, 8} {
				res, j := synthAtWorkers(t, tc.src, tc.entry, tc.spec(), tc.prof, workers, tc.exhaust)
				if res.Tested != ref.Tested || res.Survivors != ref.Survivors ||
					res.Candidates != ref.Candidates || res.FailReason != ref.FailReason {
					t.Errorf("workers=%d: result (%d tested, %d survivors, %q) != sequential (%d, %d, %q)",
						workers, res.Tested, res.Survivors, res.FailReason,
						ref.Tested, ref.Survivors, ref.FailReason)
				}
				switch {
				case (res.Adapter == nil) != (ref.Adapter == nil):
					t.Errorf("workers=%d: adapter presence differs", workers)
				case res.Adapter != nil:
					if res.Adapter.Cand.Key() != ref.Adapter.Cand.Key() {
						t.Errorf("workers=%d: winner %q != sequential %q",
							workers, res.Adapter.Cand.Key(), ref.Adapter.Cand.Key())
					}
					if res.Adapter.Post.String() != ref.Adapter.Post.String() {
						t.Errorf("workers=%d: post-op differs", workers)
					}
				}
				sigs := journalSigs(j)
				if len(sigs) != len(refSigs) {
					t.Fatalf("workers=%d: %d events, sequential has %d:\n%v\nvs\n%v",
						workers, len(sigs), len(refSigs), sigs, refSigs)
				}
				for i := range sigs {
					if sigs[i] != refSigs[i] {
						t.Errorf("workers=%d: event %d differs:\n%s\nvs\n%s",
							workers, i, sigs[i], refSigs[i])
					}
				}
			}
		})
	}
}

// slowTailSrc wraps radix2Struct's FFT. At n=64, the size of every
// candidate's first case, it spins briefly and then corrupts the result,
// so every candidate dies at that case. At larger n it spins for millions
// of steps first, so at Workers>1 those cases are still running when the
// first case kills their candidate, and must be cancelled.
const slowTailSrc = radix2Struct + `
void spin_fft(cpx* x, int n) {
    int spin = 20000;
    if (n > 64) {
        spin = 2000000;
    }
    double acc = 0.0;
    for (int i = 0; i < spin; i++) {
        acc = acc + 1.0;
    }
    fft(x, n);
    if (n == 64) {
        x[1].re = x[1].re + acc;
    }
}`

// TestPoolNoSpuriousTimeouts: a case cancelled because an earlier case
// already killed its candidate is dropped — it yields no "timeout" (or
// "cancelled") verdict and no event of its own — and it is cut short
// rather than run to completion.
func TestPoolNoSpuriousTimeouts(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", slowTailSrc)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	search := func(workers int) (map[string]int64, []obs.Event, []string, *Result) {
		tr := obs.New()
		sp := tr.Span("synthesize")
		ev := obs.NewEvents()
		res, err := Synthesize(context.Background(), f, f.Func("spin_fft"),
			accel.NewFFTA(), pow2Profile("n", 64, 128, 256, 512),
			Options{NumTests: 4, Workers: workers, Obs: sp, Events: ev})
		sp.End()
		if err != nil {
			t.Fatalf("synthesize (workers=%d): %v", workers, err)
		}
		return tr.Metrics().Counters(), killEvents(ev), journalSigs(ev), res
	}
	_, seqKills, seqJournal, seq := search(1)
	if seq.Tested == 0 || len(seqKills) != seq.Tested {
		t.Fatalf("workers=1: %d tested, %d kills (%s); want every tested candidate killed",
			seq.Tested, len(seqKills), seq.FailReason)
	}
	pastKill := false
	for run := 0; run < 5; run++ {
		c, kills, journal, res := search(4)
		if got := c["synth.candidate_timeouts"]; got != 0 {
			t.Fatalf("run %d: %d candidate timeouts with no timeout configured", run, got)
		}
		if res.Tested != seq.Tested {
			t.Fatalf("run %d: %d tested, workers=1 tested %d", run, res.Tested, seq.Tested)
		}
		if fmt.Sprint(journal) != fmt.Sprint(seqJournal) {
			t.Fatalf("run %d: journal differs from workers=1:\n%v\nvs\n%v", run, journal, seqJournal)
		}
		if len(kills) != len(seqKills) {
			t.Fatalf("run %d: %d kill events, workers=1 recorded %d", run, len(kills), len(seqKills))
		}
		for i, ev := range kills {
			if got, want := eventSig(ev), eventSig(seqKills[i]); got != want {
				t.Fatalf("run %d: kill event %d = %s, workers=1 recorded %s", run, i, got, want)
			}
		}
		// A slow case run to the end costs about 16M steps.
		if steps := c["interp.steps"]; steps > 12_000_000 {
			t.Fatalf("run %d: %d interp steps: the cases past the kill ran to completion", run, steps)
		}
		if c["synth.tests_run"] > int64(res.Tested) {
			pastKill = true
		}
	}
	if !pastKill && runtime.GOMAXPROCS(0) > 1 {
		t.Error("no run started a case past its candidate's kill; the check is vacuous")
	}
}

// TestOracleSharesReferenceRuns: candidates that differ only in
// accelerator-side knobs (direction constants/maps, flags) must share the
// user program's reference executions. The FFTW target multiplies exactly
// such candidates, so the cache hit rate must clear 50% — the economics
// the oracle exists for.
func TestOracleSharesReferenceRuns(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", dirFlagSrc)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	tr := obs.New()
	sp := tr.Span("synthesize")
	res, err := Synthesize(context.Background(), f, f.Func("fft_dir"),
		accel.NewFFTWLib(), pow2Profile("n", 16, 32, 64),
		Options{NumTests: 4, Workers: 1, Obs: sp, ExhaustAll: true})
	sp.End()
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	c := tr.Metrics().Counters()
	hits, misses := c["synth.oracle_hits"], c["synth.oracle_misses"]
	if hits == 0 {
		t.Fatal("oracle cache never hit across accelerator-side candidate variants")
	}
	if rate := float64(hits) / float64(hits+misses); rate <= 0.5 {
		t.Errorf("oracle hit rate = %.2f (hits=%d misses=%d), want > 0.5",
			rate, hits, misses)
	}
}

// TestPoolCancellation: cancelling the run context aborts a parallel
// synthesis with a wrapping error rather than hanging or succeeding.
func TestPoolCancellation(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Synthesize(ctx, f, f.Func("fft"), accel.NewFFTA(), pow2Profile("n"),
		Options{NumTests: 4, Workers: 4})
	if err == nil {
		t.Fatal("cancelled synthesis returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}
