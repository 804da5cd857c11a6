package synth

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"facc/internal/accel"
	"facc/internal/fft"
	"facc/internal/minic"
	"facc/internal/obs"
)

// TestPanicInAcceleratorIsIsolated: a Go panic inside a candidate's
// accelerator call (a buggy device backend) must not kill the process or
// the compilation — the candidate is rejected with a "panic" verdict and
// synthesis finishes cleanly. At Workers=4 the panic happens in a case
// goroutine and must reach the candidate's shield all the same, with the
// journal a sequential run writes.
func TestPanicInAcceleratorIsIsolated(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	var seqJournal []string
	for _, workers := range []int{1, 4} {
		spec := accel.NewFFTA()
		var calls atomic.Int64
		spec.Exec = func([]complex128, fft.Direction) ([]complex128, error) {
			calls.Add(1)
			panic("device driver bug")
		}
		tr := obs.New()
		j := obs.NewJournal()
		sp := tr.Span("synthesize")
		res, err := Synthesize(context.Background(), f, f.Func("fft"), spec, pow2Profile("n"),
			Options{NumTests: 4, Obs: sp, Journal: j, Workers: workers})
		sp.End()
		if err != nil {
			t.Fatalf("workers=%d: panics escalated into a synthesis error: %v", workers, err)
		}
		if res.Adapter != nil {
			t.Fatalf("workers=%d: an adapter survived a backend that panics on every call", workers)
		}
		if got := tr.Metrics().Counters()["synth.panics"]; got == 0 || calls.Load() == 0 {
			t.Fatalf("workers=%d: synth.panics = %d after %d backend calls: the recover path never ran",
				workers, got, calls.Load())
		}
		if res.Tested < 2 {
			t.Fatalf("workers=%d: res.Tested = %d: synthesis stopped at the first panic", workers, res.Tested)
		}
		sawVerdict := false
		for _, ev := range j.Events() {
			if ev.Kind == obs.KindFuzz && ev.Outcome == "panic" {
				sawVerdict = true
			}
		}
		if !sawVerdict {
			t.Fatalf("workers=%d: journal has no panic verdict", workers)
		}
		if sigs := journalSigs(j); seqJournal == nil {
			seqJournal = sigs
		} else if fmt.Sprint(sigs) != fmt.Sprint(seqJournal) {
			t.Fatalf("workers=%d: journal differs from workers=1:\n%v\nvs\n%v", workers, sigs, seqJournal)
		}
	}
}

// TestPanicCostsOneCandidate: with a backend that panics exactly once,
// only the candidate under test at that moment is rejected — it gets a
// single "panic" verdict and fuzzing demonstrably continues to later
// candidates. (The poisoned candidate here happens to be the unique
// winner, so no adapter results; the point is the blast radius, not the
// outcome.) At Workers=4 the first call may come from any of the first
// candidate's cases; every other case passes, so resolution reaches the
// panic whichever it is.
func TestPanicCostsOneCandidate(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	for _, workers := range []int{1, 4} {
		spec := accel.NewFFTA()
		var calls atomic.Int64
		spec.Exec = func(in []complex128, dir fft.Direction) ([]complex128, error) {
			if calls.Add(1) == 1 {
				panic("one-shot driver bug")
			}
			return spec.Simulate(in, dir)
		}
		j := obs.NewJournal()
		res, err := Synthesize(context.Background(), f, f.Func("fft"), spec, pow2Profile("n"),
			Options{NumTests: 4, Journal: j, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: synthesize: %v", workers, err)
		}
		panics := 0
		continued := false
		for _, ev := range j.Events() {
			if ev.Kind != obs.KindFuzz {
				continue
			}
			if ev.Outcome == "panic" {
				panics++
			} else if panics > 0 {
				continued = true
			}
		}
		if panics != 1 {
			t.Fatalf("workers=%d: %d panic verdicts, want exactly 1", workers, panics)
		}
		if !continued {
			t.Fatalf("workers=%d: no candidates fuzzed after the panic: the shield did not contain it", workers)
		}
		if res.Tested < 2 {
			t.Fatalf("workers=%d: res.Tested = %d, want at least the poisoned candidate plus one more",
				workers, res.Tested)
		}
	}
}
