package accel

import (
	"fmt"
	"math"

	"facc/internal/fft"
)

// Run executes the target's transform: through Exec when a test has
// installed one, else directly on the built-in simulator.
func (s *Spec) Run(input []complex128, dir fft.Direction) ([]complex128, error) {
	s.runs.Inc()
	if s.Exec != nil {
		return s.Exec(input, dir)
	}
	return s.Simulate(input, dir)
}

// Simulate executes the target's transform functionally: the complex
// spectrum the real device would produce, including its behavioral quirks
// (normalization, bit-reversed output). dir is the logical direction the
// caller wants; targets without a direction parameter only do Forward.
func (s *Spec) Simulate(input []complex128, dir fft.Direction) ([]complex128, error) {
	n := len(input)
	if !s.Supports(n) {
		return nil, &DomainError{Spec: s, N: n}
	}
	if dir == fft.Inverse && !s.HasDirection {
		return nil, fmt.Errorf("accel: %s has no inverse transform", s.Name)
	}
	var out []complex128
	if s.PowerOfTwoOnly || fft.IsPowerOfTwo(n) {
		out = make([]complex128, n)
		copy(out, input)
		if err := fft.Radix2(out, dir); err != nil {
			return nil, err
		}
	} else {
		out = fft.MixedRadix(input, dir)
	}
	// Hardware runs single-precision datapaths; round through complex64
	// like the real device would.
	if s.Name != "fftw" {
		for i := range out {
			out[i] = complex128(complex64(out[i]))
		}
	}
	if s.NormalizedOutput {
		fft.Normalize(out)
	}
	if s.BitReversedOutput {
		fft.BitReverse(out)
	}
	return out, nil
}

// DomainError reports an input outside the accelerator's supported range.
type DomainError struct {
	Spec *Spec
	N    int
}

func (e *DomainError) Error() string {
	return fmt.Sprintf("accel: %s does not support length %d (supports %s)",
		e.Spec.Name, e.N, e.Spec.DomainDescription())
}

// Time returns the modeled wall-clock seconds for one length-n transform,
// including offload overhead and data transfer.
func (s *Spec) Time(n int) float64 {
	if n < 1 {
		return s.OverheadSec
	}
	work := float64(n) * math.Log2(math.Max(float64(n), 2))
	return s.OverheadSec + s.PerPointSec*work + s.TransferPerElem*float64(2*n)
}
