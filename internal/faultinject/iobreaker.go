package faultinject

import (
	"errors"
	"sync"
	"time"

	"facc/internal/obs"
)

// State is a circuit-breaker state.
type State int

// Breaker states: Closed passes operations through; Open rejects them;
// HalfOpen lets one probe through after the cooldown.
const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// ErrCircuitOpen is returned by IOBreaker.Do while the circuit is open
// (and by non-probe callers during the half-open window): the operation
// was not attempted. Callers degrade — the adapter store treats it as a
// cache miss and recompiles rather than waiting on sick storage.
var ErrCircuitOpen = errors.New("faultinject: circuit open")

// IOBreaker is the circuit breaker for plain error-returning operations
// (disk reads/writes in the adapter store): consecutive failures past
// Threshold open the circuit, after Cooldown exactly one probe is
// allowed through, a successful probe closes it. Metrics are published
// under the given prefix:
//
//	<prefix>.breaker.transitions.<state> (counters)
//	<prefix>.breaker.state               (gauge, State enum value)
//	<prefix>.breaker.rejected            (operations skipped while open)
type IOBreaker struct {
	reg    *obs.Registry
	prefix string

	// Threshold is the consecutive-failure count that opens the circuit
	// (default 5).
	Threshold int
	// Cooldown is how long the circuit stays open before a probe
	// (default 250ms).
	Cooldown time.Duration
	// OnStateChange, when non-nil, observes transitions (called outside
	// the lock).
	OnStateChange func(from, to State)

	// now is swappable for tests.
	now func() time.Time

	mu       sync.Mutex
	state    State
	failures int
	openedAt time.Time
	probing  bool
}

// NewIOBreaker returns a closed breaker reporting under prefix (e.g.
// "store"). reg may be nil.
func NewIOBreaker(prefix string, reg *obs.Registry) *IOBreaker {
	b := &IOBreaker{
		reg:       reg,
		prefix:    prefix,
		Threshold: 5,
		Cooldown:  250 * time.Millisecond,
		now:       time.Now,
	}
	reg.Gauge(prefix + ".breaker.state").Set(float64(Closed))
	return b
}

// State returns the current circuit state.
func (b *IOBreaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Do runs op through the breaker. While the circuit is open (or another
// caller holds the half-open probe) it returns ErrCircuitOpen without
// invoking op; otherwise op's own error feeds the failure count.
func (b *IOBreaker) Do(op func() error) error {
	var notes []func()
	defer func() {
		for _, fn := range notes {
			fn()
		}
	}()

	b.mu.Lock()
	if b.state == Open && b.now().Sub(b.openedAt) >= b.Cooldown {
		notes = b.transition(HalfOpen, notes)
	}
	state := b.state
	probe := false
	if state == HalfOpen {
		if !b.probing {
			b.probing, probe = true, true
		} else {
			state = Open
		}
	}
	b.mu.Unlock()

	if state == Open {
		b.reg.Counter(b.prefix + ".breaker.rejected").Inc()
		return ErrCircuitOpen
	}

	err := op()

	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	if err != nil {
		b.failures++
		if b.state == HalfOpen || b.failures >= b.Threshold {
			notes = b.transition(Open, notes)
			b.openedAt = b.now()
		}
		return err
	}
	b.failures = 0
	if b.state == HalfOpen {
		notes = b.transition(Closed, notes)
	}
	return nil
}

// transition records a state change (caller holds b.mu) and defers the
// OnStateChange notification until the lock is released.
func (b *IOBreaker) transition(to State, notes []func()) []func() {
	from := b.state
	if from == to {
		return notes
	}
	b.state = to
	b.reg.Counter(b.prefix + ".breaker.transitions." + to.String()).Inc()
	b.reg.Gauge(b.prefix + ".breaker.state").Set(float64(to))
	if hook := b.OnStateChange; hook != nil {
		notes = append(notes, func() { hook(from, to) })
	}
	return notes
}
