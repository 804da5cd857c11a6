package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// smokePrograms is a corpus slice that compiles fast and still covers a
// supported program on every target and an unsupported one.
const smokePrograms = "fixed64,handopt,verbose"

// TestSmoke runs every workload briefly, untraced and traced, on a small
// corpus slice, and checks the result line the way the benchmark's users
// read it: every metric BENCHMARK.json declares is present and finite, and
// no output differed from golden.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the facc binaries and a faccd")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	exe := filepath.Join(t.TempDir(), "faccbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, traced := range []string{"0", "1"} {
		declared := sp.EndToEnd
		if traced == "1" {
			declared = sp.PerLayer
		}
		for _, w := range workloadOrder {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(exe, "-workload", w, "-seconds", "1", "-trace", traced, "-programs", smokePrograms)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w, traced, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res contract
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v\n%s", w, traced, err, stdout.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s",
					w, traced, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d", w, traced, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%s: metric %s = %+v (present %v), want a finite value in %s",
						w, traced, d.Name, m, ok, d.Unit)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), the rule run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestQuantileHarrellDavis pins quantile to the Harrell–Davis estimate with
// exactly integrated beta weights: 4/3 in closed form for the first case,
// the others by fine numerical integration.
func TestQuantileHarrellDavis(t *testing.T) {
	pow2 := []float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	for _, c := range []struct {
		in   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.25, 4.0 / 3},
		{pow2, 0.5, 37.44965},
		{pow2, 0.9, 392.6086},
		{[]float64{7}, 0.9, 7},
	} {
		if got := quantile(c.in, c.q); math.Abs(got-c.want) > 1e-3*c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.in, c.q, got, c.want)
		}
	}
}

// TestSelfTimeSubtractsChildren checks a span's self time is its duration
// minus the union of its children, overlapping children counted once.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "root", Start: 0, End: 100},
		{Name: "a", Parent: 1, Start: 10, End: 40},
		{Name: "b", Parent: 1, Start: 30, End: 60}, // overlaps a by 10
		{Name: "c", Parent: 2, Start: 15, End: 20},
	}}
	got := r.selfTimes()
	want := map[string]float64{"root": 50, "a": 25, "b": 30, "c": 5}
	for name, w := range want {
		if float64(got[name]) != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}
