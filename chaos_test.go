package facc

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// chaosOptions is the shared baseline: the quickstart program compiled
// against the FFTA with a small but real fuzz budget.
func chaosOptions() Options {
	return Options{
		ProfileValues: map[string][]int64{"n": {64, 128, 256}},
		NumTests:      4,
	}
}

// TestChaosDeadlineReturnsPromptly: a compile with a 1ms deadline must
// return a context error well within 100ms (the interpreter polls the
// context inside the fuzz loop) and leak no goroutines.
func TestChaosDeadlineReturnsPromptly(t *testing.T) {
	before := runtime.NumGoroutine()

	opts := chaosOptions()
	opts.ProfileValues = map[string][]int64{"n": {256, 512, 1024}}
	opts.NumTests = 50 // enough work that 1ms cannot possibly finish
	opts.Deadline = time.Millisecond
	start := time.Now()
	_, err := Compile("fft.c", quickstartSrc, TargetFFTA, opts)
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("compile beat a 1ms deadline; expected a context error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not unwrap to DeadlineExceeded: %v", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("1ms deadline honored only after %v", elapsed)
	}

	// The pipeline is synchronous; the only transient goroutine is the
	// deadline timer's, which cancel() reaps. Allow it a moment to exit.
	settle := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(settle) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("goroutines leaked across a deadline abort: %d before, %d after", before, after)
	}
}

// TestChaosPreCancelledContext: CompileContext with an already-cancelled
// context returns immediately with an error wrapping context.Canceled.
func TestChaosPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := CompileContext(ctx, "fft.c", quickstartSrc, TargetFFTA, chaosOptions())
	if err == nil {
		t.Fatal("pre-cancelled compile succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("pre-cancelled compile took %v", d)
	}
}

// TestChaosCandidateTimeoutCostsOneCandidate: an unmeetable per-candidate
// budget rejects every candidate ("timeout" verdicts) but never turns
// into a compile-level error — a hung candidate costs a candidate, not
// the compilation.
func TestChaosCandidateTimeoutCostsOneCandidate(t *testing.T) {
	opts := chaosOptions()
	opts.CandidateTimeout = time.Nanosecond
	tr := NewTracer()
	opts.Trace = tr
	res, err := Compile("fft.c", quickstartSrc, TargetFFTA, opts)
	if err != nil {
		t.Fatalf("candidate timeouts escalated into a compile error: %v", err)
	}
	if res.OK() {
		t.Fatal("an adapter survived a 1ns per-candidate budget")
	}
	if tr.Metrics().Counters()["synth.candidate_timeouts"] == 0 {
		t.Fatal("no candidate timeouts counted")
	}

	// A generous budget changes nothing about the result.
	opts = chaosOptions()
	opts.CandidateTimeout = 10 * time.Second
	res, err = Compile("fft.c", quickstartSrc, TargetFFTA, opts)
	if err != nil || !res.OK() {
		t.Fatalf("compile with a generous candidate budget: ok=%v err=%v", res.OK(), err)
	}
}
