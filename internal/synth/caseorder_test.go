package synth

// Case-order independence: runUser keeps a machine's globals between the
// cases it runs (m.Reset clears fuel and counters only), and the oracle
// runs each case on whichever pooled machine is free. A reference run
// must therefore not depend on which cases ran before it on the same
// machine, or an adapter's verdict would depend on scheduling.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/bench"
	"facc/internal/binding"
	"facc/internal/interp"
	"facc/internal/iogen"
	"facc/internal/minic"
)

// caseRun is everything a reference run reports to the comparison: the
// output bits, the return value and the fault kind.
type caseRun struct {
	out   []uint64
	ret   string
	fault string
}

func (r caseRun) equal(o caseRun) bool {
	if r.ret != o.ret || r.fault != o.fault || len(r.out) != len(o.out) {
		return false
	}
	for i := range r.out {
		if r.out[i] != o.out[i] {
			return false
		}
	}
	return true
}

// refMachine builds a reference machine configured as the oracle's.
func refMachine(t *testing.T, f *minic.File) *interp.Machine {
	t.Helper()
	m, err := interp.NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 40_000_000
	return m
}

func refRun(m *interp.Machine, fn *minic.FuncDecl, cand *binding.Candidate, tc iogen.Case) caseRun {
	out, ret, err := runUser(m, fn, cand, tc)
	var r caseRun
	if err != nil {
		r.fault = interp.FaultOf(err).String() + ": " + err.Error()
		return r
	}
	if ret != nil {
		r.ret = fmt.Sprint(*ret)
	}
	r.out = make([]uint64, 0, 2*len(out))
	for _, v := range out {
		r.out = append(r.out, math.Float64bits(real(v)), math.Float64bits(imag(v)))
	}
	return r
}

func corpusProfile(values map[string][]int64) *analysis.Profile {
	if values == nil {
		return nil
	}
	p := analysis.NewProfile()
	for name, vals := range values {
		for _, v := range vals {
			p.ObserveInt(name, v)
		}
	}
	return p
}

// TestCaseOrderIndependent runs the cases of every candidate the
// Workers=1 search dispatches, on every (program, target) pair of the
// corpus, three ways: on one machine in replay order, on one machine in
// reverse order, and each on a fresh machine. All three must agree bit
// for bit.
func TestCaseOrderIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every dispatched candidate's cases three times; skipped in -short")
	}
	var opts Options
	opts.defaults()
	candidates, cases := 0, 0
	for _, bm := range bench.Suite() {
		f, err := minic.ParseAndCheck(bm.File, bm.Source())
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		fn := f.Func(bm.Entry)
		if fn == nil {
			t.Fatalf("%s: no function %q", bm.Name, bm.Entry)
		}
		prof := corpusProfile(bm.ProfileValues)
		for _, target := range []string{"ffta", "powerquad", "fftw"} {
			spec, err := accel.SpecByName(target)
			if err != nil {
				t.Fatal(err)
			}
			o := opts
			o.Workers = 1
			res, err := Synthesize(context.Background(), f, fn, spec, prof, o)
			if err != nil {
				t.Fatalf("%s/%s: %v", bm.Name, target, err)
			}
			if res.Tested == 0 {
				continue
			}
			cands := binding.Enumerate(analysis.AnalyzeFunc(f, fn), spec, prof, o.Binding)
			for _, cand := range cands[:res.Tested] {
				gen := iogen.New(o.Seed, cand, prof)
				if !gen.Viable() {
					continue
				}
				tcs := gen.Cases(o.NumTests)
				fwd := make([]caseRun, len(tcs))
				m := refMachine(t, f)
				for i, tc := range tcs {
					fwd[i] = refRun(m, fn, cand, tc)
				}
				rev := make([]caseRun, len(tcs))
				m = refMachine(t, f)
				for i := len(tcs) - 1; i >= 0; i-- {
					rev[i] = refRun(m, fn, cand, tcs[i])
				}
				for i, tc := range tcs {
					fresh := refRun(refMachine(t, f), fn, cand, tc)
					if !fwd[i].equal(rev[i]) || !fwd[i].equal(fresh) {
						t.Errorf("%s/%s %s case %d depends on the cases run before it:\n"+
							"  replay order: ret %q fault %q\n  reverse order: ret %q fault %q\n"+
							"  fresh machine: ret %q fault %q",
							bm.Name, target, cand.Key(), i, fwd[i].ret, fwd[i].fault,
							rev[i].ret, rev[i].fault, fresh.ret, fresh.fault)
					}
				}
				candidates++
				cases += len(tcs)
			}
		}
	}
	if candidates == 0 {
		t.Fatal("no candidate dispatched; the check is vacuous")
	}
	t.Logf("%d cases of %d dispatched candidates agree in every order", cases, candidates)
}
