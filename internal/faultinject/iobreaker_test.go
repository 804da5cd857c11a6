package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"facc/internal/obs"
)

// TestIOBreaker exercises the store-facing breaker: consecutive
// failures open it, open rejects without invoking the operation, a
// successful probe closes it.
func TestIOBreaker(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewIOBreaker("store", reg)
	b.Threshold = 3
	clock := time.Unix(2000, 0)
	b.now = func() time.Time { return clock }

	ops := 0
	boom := errors.New("disk on fire")
	failing := func() error { ops++; return boom }
	healthy := func() error { ops++; return nil }

	for i := 0; i < 3; i++ {
		if err := b.Do(failing); !errors.Is(err, boom) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	if err := b.Do(healthy); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open circuit: err=%v, want ErrCircuitOpen", err)
	}
	if ops != 3 {
		t.Fatalf("op invoked %d times, want 3 (open circuit must not run ops)", ops)
	}
	clock = clock.Add(b.Cooldown)
	if err := b.Do(healthy); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed", b.State())
	}
	c := reg.Counters()
	if c["store.breaker.rejected"] != 1 {
		t.Fatalf("rejected = %d, want 1", c["store.breaker.rejected"])
	}
	if c["store.breaker.transitions.open"] != 1 || c["store.breaker.transitions.closed"] != 1 {
		t.Fatalf("transition counters = %v", c)
	}
	if fmt.Sprint(HalfOpen) != "half-open" {
		t.Fatalf("State stringer broken: %v", HalfOpen)
	}
}

// TestIOBreakerHalfOpenSingleProbeConcurrent drives the half-open window
// with many concurrent callers (run under -race by `make chaos`): exactly
// ONE caller's operation probes the recovering storage while every other
// caller in the window is rejected with ErrCircuitOpen without running
// its operation, and a successful probe closes the circuit for everyone
// after.
func TestIOBreakerHalfOpenSingleProbeConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewIOBreaker("store", reg)
	b.Threshold = 2
	b.Cooldown = 50 * time.Millisecond
	var clockMu sync.Mutex
	clock := time.Unix(1000, 0)
	b.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}

	// Open the circuit with consecutive failures.
	boom := errors.New("disk on fire")
	for i := 0; i < 2; i++ {
		if err := b.Do(func() error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}

	// Storage recovers; the cooldown elapses. The next window is
	// half-open. Every operation that runs announces itself on entered
	// and blocks until release is closed, so the probe stays in flight
	// while the other callers race it.
	clockMu.Lock()
	clock = clock.Add(b.Cooldown)
	clockMu.Unlock()
	const callers = 12
	var ran atomic.Int64
	// One slot per operation that could run (every caller plus the
	// post-close call), so no operation blocks announcing itself.
	entered := make(chan struct{}, callers+1)
	release := make(chan struct{})
	op := func() error {
		ran.Add(1)
		entered <- struct{}{}
		<-release
		return nil
	}
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- b.Do(op)
		}()
	}

	// One caller's operation runs and parks.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no probe reached the operation")
	}
	// Every other caller must be turned away while the probe is still in
	// flight — none may stack up behind the storage.
	for rejected := 0; rejected < callers-1; rejected++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrCircuitOpen) {
				t.Fatalf("non-probe caller got %v, want ErrCircuitOpen", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d non-probe callers returned while the probe was in flight",
				rejected, callers-1)
		}
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("operation ran %d times in the half-open window, want exactly 1", got)
	}
	if got := reg.Counters()["store.breaker.rejected"]; got != callers-1 {
		t.Fatalf("rejected = %d, want %d", got, callers-1)
	}

	// Release the probe: it succeeds and closes the circuit.
	close(release)
	wg.Wait()
	if err := <-errs; err != nil {
		t.Fatalf("probe: %v", err)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed after successful probe", b.State())
	}

	// Subsequent operations run again.
	if err := b.Do(op); err != nil || ran.Load() != 2 {
		t.Fatalf("post-close call: err=%v, operations run %d, want 2", err, ran.Load())
	}
}
