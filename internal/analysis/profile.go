package analysis

import (
	"fmt"
	"sort"
	"strings"

	"facc/internal/interp"
)

// Range summarizes the values one variable was observed (or inferred) to
// take: an interval plus structural facts the range-check generator uses.
type Range struct {
	Min, Max int64
	Count    int64
	// AllPowersOfTwo is true while every observed value is a power of two.
	AllPowersOfTwo bool
	// Values holds the distinct observed values while they remain few
	// (flag-like variables); nil once the set grows past maxDistinct.
	Values map[int64]bool
}

const maxDistinct = 16

// NewRange returns an empty range.
func NewRange() *Range {
	return &Range{AllPowersOfTwo: true, Values: map[int64]bool{}}
}

// Observe folds one value into the range.
func (r *Range) Observe(v int64) {
	if r.Count == 0 {
		r.Min, r.Max = v, v
	} else {
		if v < r.Min {
			r.Min = v
		}
		if v > r.Max {
			r.Max = v
		}
	}
	r.Count++
	if v <= 0 || v&(v-1) != 0 {
		r.AllPowersOfTwo = false
	}
	if r.Values != nil {
		r.Values[v] = true
		if len(r.Values) > maxDistinct {
			r.Values = nil
		}
	}
}

// Distinct returns the sorted distinct values, or nil if too many were seen.
func (r *Range) Distinct() []int64 {
	if r.Values == nil {
		return nil
	}
	out := make([]int64, 0, len(r.Values))
	for v := range r.Values {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsFlagLike reports whether the variable looks like a mode flag: very few
// distinct small values.
func (r *Range) IsFlagLike() bool {
	vals := r.Distinct()
	if vals == nil || len(vals) == 0 || len(vals) > 3 {
		return false
	}
	for _, v := range vals {
		if v < -1 || v > 2 {
			return false
		}
	}
	return true
}

// Width returns the size of the observed interval.
func (r *Range) Width() int64 {
	if r.Count == 0 {
		return 0
	}
	return r.Max - r.Min + 1
}

func (r *Range) String() string {
	if r.Count == 0 {
		return "[]"
	}
	s := fmt.Sprintf("[%d,%d]", r.Min, r.Max)
	if r.AllPowersOfTwo {
		s += " pow2"
	}
	if vals := r.Distinct(); vals != nil {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprintf("%d", v)
		}
		s += " {" + strings.Join(parts, ",") + "}"
	}
	return s
}

// Profile aggregates observed variable ranges — the paper's value
// profiling environment (§4.2). Attach to a machine with Attach, drive the
// program on representative inputs, then query ranges.
type Profile struct {
	Vars map[string]*Range
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{Vars: map[string]*Range{}} }

// ObserveInt folds one observation for the named variable.
func (p *Profile) ObserveInt(name string, v int64) {
	r, ok := p.Vars[name]
	if !ok {
		r = NewRange()
		p.Vars[name] = r
	}
	r.Observe(v)
}

// Attach wires the profile into a machine's Observe hook (integer values
// only; floats do not drive domain checks).
func (p *Profile) Attach(m *interp.Machine) {
	m.Observe = func(name string, v interp.Value) {
		if v.Kind() == interp.VInt {
			p.ObserveInt(name, v.I)
		}
	}
}

// Range returns the observed range for name, or nil.
func (p *Profile) Range(name string) *Range { return p.Vars[name] }
