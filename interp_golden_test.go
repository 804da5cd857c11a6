package facc

// Interpreter goldens: the operation counts, outputs and value profiles
// of every corpus program, plus every candidate death on every
// (program, target) pair. Figs. 10, 13 and 14 read the counters, the
// cost ledger reads the step counts, and synthesis reads the faults, so
// any change to the interpreter must leave all of them
// exactly as recorded here. Regenerate only with
//
//	go test -run TestInterpGolden -update .
//
// and only when a change to the numbers is intended.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"facc/internal/bench"
	"facc/internal/interp"
)

var updateGolden = flag.Bool("update", false, "rewrite the root package goldens under testdata/")

const interpGoldenPath = "testdata/interp_golden.json"

// goldenSizes are the lengths each program runs at, where SupportsSize
// accepts them.
var goldenSizes = []int{16, 64, 256}

type sizeGolden struct {
	N        int             `json:"n"`
	Counters interp.Counters `json:"counters,omitempty"`
	Output   string          `json:"output_sha256,omitempty"`
	Err      string          `json:"err,omitempty"`
}

type programGolden struct {
	Sizes   []sizeGolden `json:"sizes"`
	Profile string       `json:"profile_sha256,omitempty"`
	Err     string       `json:"profile_err,omitempty"`
}

type killGolden struct {
	Candidate string `json:"candidate"`
	Case      int    `json:"case"`
	Mismatch  string `json:"mismatch"`
	Steps     int64  `json:"steps"`
}

type pairGolden struct {
	OK    bool         `json:"ok"`
	Kills []killGolden `json:"kills"`
}

type interpGolden struct {
	Programs map[string]programGolden `json:"programs"`
	Kills    map[string]pairGolden    `json:"kills,omitempty"`
}

// goldenInput is the seeded input signal for program id at length n.
func goldenInput(id, n int) []complex128 {
	rng := rand.New(rand.NewSource(int64(id)*1000 + int64(n)))
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return in
}

// outputDigest hashes the float64 bits of out.
func outputDigest(out []complex128) string {
	h := sha256.New()
	var buf [16]byte
	for _, c := range out {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(c)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// profileDigest hashes every observed range of b's value profile.
func profileDigest(b *bench.Benchmark) (string, error) {
	prof, err := bench.CollectProfile(b)
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(prof.Vars))
	for name := range prof.Vars {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		r := prof.Vars[name]
		vals := make([]int64, 0, len(r.Values))
		for v := range r.Values {
			vals = append(vals, v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		fmt.Fprintf(h, "%s min=%d max=%d count=%d pow2=%v distinct=%v nil=%v\n",
			name, r.Min, r.Max, r.Count, r.AllPowersOfTwo, vals, r.Values == nil)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func collectProgramGoldens(t *testing.T) map[string]programGolden {
	out := map[string]programGolden{}
	for _, b := range bench.Suite() {
		var pg programGolden
		for _, n := range goldenSizes {
			if !b.SupportsSize(n) {
				continue
			}
			sg := sizeGolden{N: n}
			r, err := bench.NewRunner(b)
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			in := goldenInput(b.ID, n)
			if c, err := r.MeasureCounters(in); err != nil {
				sg.Err = err.Error()
			} else {
				sg.Counters = c
				r.Machine.Reset()
				got, err := r.Run(in)
				if err != nil {
					t.Fatalf("%s n=%d: second run: %v", b.Name, n, err)
				}
				sg.Output = outputDigest(got)
			}
			pg.Sizes = append(pg.Sizes, sg)
		}
		if d, err := profileDigest(b); err != nil {
			pg.Err = err.Error()
		} else {
			pg.Profile = d
		}
		out[b.Name] = pg
	}
	return out
}

func collectKillGoldens(t *testing.T) map[string]pairGolden {
	out := map[string]pairGolden{}
	for _, b := range bench.Suite() {
		for _, target := range differentialTargets {
			ev := NewEvents()
			res, err := Compile(b.File, b.Source(), target, Options{
				Entry:         b.Entry,
				ProfileValues: b.ProfileValues,
				Workers:       1,
				Events:        ev,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, target, err)
			}
			pg := pairGolden{OK: res.OK(), Kills: []killGolden{}}
			for _, e := range ev.Snapshot() {
				if e.Killed() {
					pg.Kills = append(pg.Kills, killGolden{
						Candidate: e.Candidate, Case: e.Case,
						Mismatch: e.KillMismatch(), Steps: e.Steps,
					})
				}
			}
			out[b.Name+"/"+target] = pg
		}
	}
	return out
}

func TestInterpGolden(t *testing.T) {
	got := interpGolden{Programs: collectProgramGoldens(t)}
	if !testing.Short() || *updateGolden {
		got.Kills = collectKillGoldens(t)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(interpGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(interpGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(interpGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want interpGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Programs) != len(want.Programs) {
		t.Errorf("program count: got %d, golden %d", len(got.Programs), len(want.Programs))
	}
	for name, w := range want.Programs {
		g, ok := got.Programs[name]
		if !ok {
			t.Errorf("%s: missing", name)
			continue
		}
		if g.Profile != w.Profile || g.Err != w.Err {
			t.Errorf("%s: value profile drifted: got %s %q, golden %s %q",
				name, g.Profile, g.Err, w.Profile, w.Err)
		}
		if len(g.Sizes) != len(w.Sizes) {
			t.Errorf("%s: sizes: got %d, golden %d", name, len(g.Sizes), len(w.Sizes))
			continue
		}
		for i := range w.Sizes {
			if g.Sizes[i] != w.Sizes[i] {
				t.Errorf("%s n=%d drifted:\n  got    %+v\n  golden %+v",
					name, w.Sizes[i].N, g.Sizes[i], w.Sizes[i])
			}
		}
	}
	if got.Kills == nil {
		return
	}
	if len(got.Kills) != len(want.Kills) {
		t.Errorf("pair count: got %d, golden %d", len(got.Kills), len(want.Kills))
	}
	for key, w := range want.Kills {
		g := got.Kills[key]
		if g.OK != w.OK || len(g.Kills) != len(w.Kills) {
			t.Errorf("%s: got ok=%v with %d kills, golden ok=%v with %d",
				key, g.OK, len(g.Kills), w.OK, len(w.Kills))
			continue
		}
		for i := range w.Kills {
			if g.Kills[i] != w.Kills[i] {
				t.Errorf("%s: kill %d drifted:\n  got    %+v\n  golden %+v",
					key, i, g.Kills[i], w.Kills[i])
			}
		}
	}
}
