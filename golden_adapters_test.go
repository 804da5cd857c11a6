package facc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// TestAdaptersMatchBenchmarkGolden pins byte-identical adapters: it
// compiles every (program, target) pair of the corpus the way the
// library-warm benchmark does — Workers 1, one oracle cache per program
// shared by its targets — and checks each against benchmark/golden.json:
// the Fig. 8 label, and for supported pairs the adapter's SHA-256 and
// signature. The golden file belongs to the benchmark module; this test
// only reads it (regenerate it with sh benchmark/run.sh -regen-golden).
func TestAdaptersMatchBenchmarkGolden(t *testing.T) {
	data, err := os.ReadFile("benchmark/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Pairs []struct {
			Program string `json:"program"`
			Target  string `json:"target"`
			Label   string `json:"label"`
			Adapter string `json:"adapter_sha256"`
			Sig     string `json:"sig"`
		} `json:"pairs"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for i, g := range golden.Pairs {
		want[g.Program+"/"+g.Target] = i
	}
	checked := 0
	for _, b := range Corpus() {
		oracle := NewOracleCache()
		for _, target := range Targets() {
			id := b.Name + "/" + target
			i, ok := want[id]
			if !ok {
				t.Fatalf("benchmark/golden.json has no entry for %s", id)
			}
			g := golden.Pairs[i]
			opts := Options{Entry: b.Entry, Workers: 1, Oracle: oracle}
			if len(b.ProfileValues) > 0 {
				opts.ProfileValues = b.ProfileValues
			}
			res, err := Compile(b.File, b.Source(), target, opts)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			checked++
			if g.Label != "supported" {
				if res.OK() || res.FailReason() != g.Label {
					t.Errorf("%s: want failure %q, got ok=%v reason %q", id, g.Label, res.OK(), res.FailReason())
				}
				continue
			}
			if !res.OK() {
				t.Errorf("%s: want an adapter, got failure %q", id, res.FailReason())
				continue
			}
			sum := sha256.Sum256([]byte(res.AdapterC()))
			if got := hex.EncodeToString(sum[:]); got != g.Adapter {
				t.Errorf("%s: adapter sha256 %.12s, want %.12s", id, got, g.Adapter)
			}
			if res.Sig() != g.Sig {
				t.Errorf("%s: sig %q, want %q", id, res.Sig(), g.Sig)
			}
		}
	}
	if checked != len(golden.Pairs) {
		t.Fatalf("checked %d pairs, golden.json has %d", checked, len(golden.Pairs))
	}
}
