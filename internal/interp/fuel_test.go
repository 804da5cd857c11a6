package interp

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"facc/internal/minic"
)

const fuelSrc = `
int spin(int n) {
    while (1) { n = n + 1; }
    return n;
}
int recurse(int n) {
    return recurse(n + 1);
}
int work(int n) {
    int i;
    int s;
    s = 0;
    for (i = 0; i < n; i = i + 1) { s = s + i; }
    return s;
}
`

func fuelMachine(t *testing.T) *Machine {
	t.Helper()
	f, err := minic.ParseAndCheck("fuel.c", fuelSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := NewMachine(f)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func TestFuelExhaustedOnInfiniteLoop(t *testing.T) {
	m := fuelMachine(t)
	m.MaxSteps = 10_000
	_, err := m.CallNamed("spin", []Value{IntValue(0)})
	if err == nil {
		t.Fatal("infinite while terminated")
	}
	if k := FaultOf(err); k != FaultFuelExhausted {
		t.Fatalf("FaultOf = %v, want fuel-exhausted (err: %v)", k, err)
	}
	if m.Counters.Steps <= m.MaxSteps {
		t.Fatalf("steps = %d, expected the counter to pass the %d budget",
			m.Counters.Steps, m.MaxSteps)
	}
}

func TestStackOverflowOnDeepRecursion(t *testing.T) {
	m := fuelMachine(t)
	m.MaxDepth = 100
	_, err := m.CallNamed("recurse", []Value{IntValue(0)})
	if err == nil {
		t.Fatal("unbounded recursion terminated")
	}
	if k := FaultOf(err); k != FaultStackOverflow {
		t.Fatalf("FaultOf = %v, want stack-overflow (err: %v)", k, err)
	}
}

func TestDefaultDepthLimitCatchesRecursion(t *testing.T) {
	m := fuelMachine(t)
	// The zero MaxDepth falls back to DefaultMaxDepth, which must trip
	// before the Go runtime's own stack does.
	_, err := m.CallNamed("recurse", []Value{IntValue(0)})
	if k := FaultOf(err); k != FaultStackOverflow {
		t.Fatalf("FaultOf = %v, want stack-overflow (err: %v)", k, err)
	}
}

func TestFuelResetsBetweenCalls(t *testing.T) {
	m := fuelMachine(t)
	m.MaxSteps = 2_000
	args := []Value{IntValue(50)}

	// With Reset between calls each run gets a fresh budget: many calls,
	// none exhausts.
	for i := 0; i < 20; i++ {
		if _, err := m.CallNamed("work", args); err != nil {
			t.Fatalf("call %d with Reset: %v", i, err)
		}
		if i == 0 && m.Counters.Steps == 0 {
			t.Fatal("work(50) consumed no steps; the budget test is vacuous")
		}
		m.Reset()
		if m.Counters.Steps != 0 {
			t.Fatalf("Reset left Counters.Steps = %d", m.Counters.Steps)
		}
	}

	// Without Reset the spent fuel accumulates until the budget trips.
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		_, err = m.CallNamed("work", args)
	}
	if k := FaultOf(err); k != FaultFuelExhausted {
		t.Fatalf("FaultOf = %v, want fuel-exhausted after un-Reset calls (err: %v)", k, err)
	}

	// Reset restores the budget after exhaustion too.
	m.Reset()
	if _, err := m.CallNamed("work", args); err != nil {
		t.Fatalf("call after exhaustion+Reset: %v", err)
	}
}

func TestFaultOfSeesThroughWrapping(t *testing.T) {
	m := fuelMachine(t)
	m.MaxSteps = 1_000
	_, err := m.CallNamed("spin", []Value{IntValue(0)})
	wrapped := fmt.Errorf("synth: candidate 3: %w", fmt.Errorf("fuzz case 7: %w", err))
	if k := FaultOf(wrapped); k != FaultFuelExhausted {
		t.Fatalf("FaultOf(wrapped) = %v, want fuel-exhausted", k)
	}
	if FaultOf(errors.New("unrelated")) != FaultNone {
		t.Fatal("FaultOf(non-runtime error) != FaultNone")
	}
	if FaultOf(nil) != FaultNone {
		t.Fatal("FaultOf(nil) != FaultNone")
	}
}

func TestCancellationFaultUnwrapsToContextError(t *testing.T) {
	m := fuelMachine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.Ctx = ctx
	_, err := m.CallNamed("spin", []Value{IntValue(0)})
	if k := FaultOf(err); k != FaultCancelled {
		t.Fatalf("FaultOf = %v, want cancelled (err: %v)", k, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	// The poll stride bounds how much work runs after cancellation.
	if m.Counters.Steps > 2*ctxPollStride {
		t.Fatalf("cancelled run still took %d steps (stride %d)", m.Counters.Steps, ctxPollStride)
	}
}

// TestFaultUnwindingLeavesMachineReusable faults deep in a recursion,
// mid-way through pushing a call's arguments, then runs normally: the
// depth and argument stack a run unwinds through must be restored.
func TestFaultUnwindingLeavesMachineReusable(t *testing.T) {
	m := fuelMachine(t)
	m.MaxDepth = 50
	for i := 0; i < 3; i++ {
		if _, err := m.CallNamed("recurse", []Value{IntValue(0)}); FaultOf(err) != FaultStackOverflow {
			t.Fatalf("run %d: err = %v, want stack-overflow", i, err)
		}
		if m.depth != 0 || len(m.args) != 0 {
			t.Fatalf("run %d: depth %d, %d stacked args after a fault", i, m.depth, len(m.args))
		}
	}
	if v, err := m.CallNamed("work", []Value{IntValue(10)}); err != nil || v.Int() != 45 {
		t.Fatalf("work(10) after faults = %v, %v", v, err)
	}
}

// TestGoPanicIsNotAFault checks that a panic that is not an interpreter
// fault (here from the Observe hook) leaves Call as a panic, so the
// synthesis engine's panic shield still sees it.
func TestGoPanicIsNotAFault(t *testing.T) {
	m := fuelMachine(t)
	m.Observe = func(string, Value) { panic("hook") }
	defer func() {
		if r := recover(); r != "hook" {
			t.Fatalf("recovered %v, want the hook's panic", r)
		}
		if m.depth != 0 {
			t.Fatalf("depth %d after a panic", m.depth)
		}
	}()
	m.CallNamed("work", []Value{IntValue(3)})
	t.Fatal("Call returned after a panic in the Observe hook")
}
