package eval

import (
	"strings"
	"testing"
)

// measured is a two-run measurement as scripts/bench_layers.sh captures
// it: the benchmark's --runs table for one workload, then Go benchmark
// result lines.
const measured = `# host nproc=2 gomaxprocs=2 go=go1.24.0 os=linux/amd64 commit=0123456789ab seed=1 seconds=2
# workload serve-mixed trace=true runs=2 seeds=1,2 attempted=100 failed=0
core.compile_ms                       8.00000 ms     q1=7.00000 q3=9.00000 spread=0.2500 n=225
core.unattributed_frac              0.0100000 frac   q1=-0.02 q3=0.04 spread=6.0000 n=225
interp.steps                      4.62748e+07 count  q1=4.62748e+07 q3=4.62748e+07 spread=0.0000 n=225
synth.oracle_hit_frac                   0.500 frac   q1=0.5 q3=0.5 spread=0.0000 n=1734
obs.trace_overhead_frac               0.01000 frac   q1=-0.02 q3=0.01 spread=3.0000 n=225
# not declared in BENCHMARK.json:
server.http_ms_p50                    0.40000 ms     q1=0.39 q3=0.41 spread=0.0500 n=6644
server.job_ms_p50                     0.80000 ms     q1=0.7 q3=0.9 spread=0.2500 n=2860
server.queue_wait_ms_p50             -7.00000 ms     q1=-7.7 q3=-6.0 spread=0.2400 n=2376
self.core.compile                     599.052 ms     q1=579.758 q3=811.725 spread=0.3872 n=2
{"correct":true,"attempted":100,"failed":0,"metrics":{"serve-mixed/interp.steps":{"value":46274753,"unit":"count"}}}
goos: linux
BenchmarkSynthCorpus-2   	       1	3000000000 ns/op	         1.100 speedup	         2.000 w1_s	         1.800 wN_s
BenchmarkSynthCorpus-2   	       1	3000000000 ns/op	         1.200 speedup	         2.100 w1_s	         1.750 wN_s
BenchmarkSynthCorpus-2   	       1	3000000000 ns/op	         1.150 speedup	         2.200 w1_s	         1.900 wN_s
BenchmarkFleetChaos-2    	       1	 900000000 ns/op	        30.00 p99_ms	         0.9000 wall_s
PASS
`

func parse(t *testing.T, text string) *Layers {
	t.Helper()
	l, err := ParseLayers(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func metricOf(t *testing.T, l *Layers, name string) LayerMetric {
	t.Helper()
	for _, m := range l.Metrics {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no metric %s in %+v", name, l.Metrics)
	return LayerMetric{}
}

// TestBenchGate: the fold keeps every declared per-layer metric and the
// two serve layers, drops the three that measure nothing, and reduces
// repeated Go benchmark runs to quartiles; the gate matches counts
// exactly, lets a timing move by its tolerance, fails a metric that is
// missing, and floors the speedup at 1.0 on two or more cores.
func TestBenchGate(t *testing.T) {
	base := parse(t, measured)
	if base.NProc != 2 || base.GoMaxProcs != 2 {
		t.Errorf("host shape = nproc %d, gomaxprocs %d; want 2, 2", base.NProc, base.GoMaxProcs)
	}
	var names []string
	for _, m := range base.Metrics {
		names = append(names, m.Name)
	}
	want := "serve-mixed/core.compile_ms serve-mixed/interp.steps serve-mixed/synth.oracle_hit_frac " +
		"serve-mixed/server.http_ms_p50 serve-mixed/server.job_ms_p50 " +
		"BenchmarkSynthCorpus/speedup BenchmarkSynthCorpus/w1_s BenchmarkSynthCorpus/wN_s " +
		"BenchmarkFleetChaos/p99_ms BenchmarkFleetChaos/wall_s"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("gated metrics:\n%s\nwant\n%s", got, want)
	}
	if m := metricOf(t, base, "serve-mixed/core.compile_ms"); m.Median != 8 || m.Q1 != 7 || m.Q3 != 9 ||
		m.Runs != 2 || tolerance(m) != 0.75 || m.Better != "lower" {
		t.Errorf("core.compile_ms = %+v; want median 8, q1 7, q3 9, 2 runs, tolerance 3×0.25, lower", m)
	}
	if m := metricOf(t, base, "serve-mixed/server.http_ms_p50"); tolerance(m) != minTolerance {
		t.Errorf("http_ms_p50 tolerance = %v, want the %v floor", tolerance(m), minTolerance)
	}
	if m := metricOf(t, base, "serve-mixed/interp.steps"); m.Median != 46274753 || m.Q3 != 46274753 || tolerance(m) != 0 {
		t.Errorf("interp.steps = %+v; want the exact count 46274753 from the result line, tolerance 0", m)
	}
	if m := metricOf(t, base, "BenchmarkSynthCorpus/w1_s"); m.Median != 2.1 || m.Q1 != 2 || m.Q3 != 2.2 ||
		m.Runs != 3 || m.Unit != "s" {
		t.Errorf("w1_s = %+v; want median 2.1, q1 2, q3 2.2 over 3 runs, in s", m)
	}
	if m := metricOf(t, base, "BenchmarkSynthCorpus/speedup"); m.Better != "higher" {
		t.Errorf("speedup better = %q, want higher", m.Better)
	}

	if rep := GateLayers(base, base); !rep.OK() || len(rep.Checks) != len(base.Metrics) {
		t.Fatalf("a measurement failed against itself: %+v", rep.Checks)
	}
	edit := func(pairs ...string) func(string) string {
		return strings.NewReplacer(pairs...).Replace
	}
	for _, tc := range []struct {
		name   string
		edit   func(string) string
		failed string // "" when the gate must pass
	}{
		{"timing within tolerance", edit("8.00000 ms", "13.9000 ms"), ""},
		{"timing past tolerance", edit("8.00000 ms", "14.1000 ms"), "serve-mixed/core.compile_ms"},
		{"count moved by one", edit(`"value":46274753`, `"value":46274754`), "serve-mixed/interp.steps"},
		{"serve layer regressed", edit("0.40000 ms", "0.60000 ms"), "serve-mixed/server.http_ms_p50"},
		{"hit rate fell", edit("0.500 frac", "0.300 frac"), "serve-mixed/synth.oracle_hit_frac"},
		{"metric missing", edit("server.job_ms_p50", "server.job_xx_p50"), "serve-mixed/server.job_ms_p50"},
		{"ungated metrics moved", edit("0.0100000 frac", "9.0000000 frac", "-7.00000 ms", "70.0000 ms"), ""},
		{"corpus wall doubled", edit("2.000 w1_s", "4.000 w1_s", "2.100 w1_s", "4.200 w1_s", "2.200 w1_s", "4.400 w1_s"),
			"BenchmarkSynthCorpus/w1_s"},
		{"speedup under 1.0", edit("1.100 speedup", "0.900 speedup", "1.200 speedup", "0.950 speedup", "1.150 speedup", "0.990 speedup"),
			"BenchmarkSynthCorpus/speedup"},
	} {
		text := tc.edit(measured)
		if text == measured {
			t.Fatalf("%s: the edit did not apply", tc.name)
		}
		rep := GateLayers(base, parse(t, text))
		var failed []string
		for _, c := range rep.Checks {
			if !c.OK {
				failed = append(failed, c.Name)
			}
		}
		if got := strings.Join(failed, " "); got != tc.failed {
			var sb strings.Builder
			rep.WriteText(&sb)
			t.Errorf("%s: failed checks %q, want %q\n%s", tc.name, got, tc.failed, sb.String())
		}
	}

	// On one core the Workers=GOMAXPROCS run is the Workers=1 run, so only
	// the relative bound applies to the speedup.
	one := parse(t, edit("gomaxprocs=2", "gomaxprocs=1", "1.100 speedup", "0.950 speedup",
		"1.200 speedup", "0.980 speedup")(measured))
	if rep := GateLayers(base, one); !rep.OK() {
		t.Errorf("a 0.98 speedup on one core failed the gate: %+v", rep.Checks)
	}

	if _, err := ParseLayers(strings.NewReader("PASS\n")); err == nil {
		t.Error("a measurement with no metrics folded without error")
	}
}

// TestBenchGateFleetChecks: the fleet chaos benchmark's medians are
// gated like every timing, so a slower median fails while one slow run
// of three does not, and a measurement without the fleet benchmark fails.
func TestBenchGateFleetChecks(t *testing.T) {
	fleet := func(lines ...string) string {
		var sb strings.Builder
		sb.WriteString("# host nproc=2 gomaxprocs=2\n")
		for _, l := range lines {
			sb.WriteString("BenchmarkFleetChaos-2 1 900000000 ns/op " + l + "\n")
		}
		return sb.String()
	}
	base := parse(t, fleet("20.0 p99_ms 1.00 wall_s", "24.0 p99_ms 1.05 wall_s", "22.0 p99_ms 1.10 wall_s"))
	if m := metricOf(t, base, "BenchmarkFleetChaos/p99_ms"); m.Median != 22 || tolerance(m) != 3*4.0/22 {
		t.Fatalf("p99_ms = %+v (tolerance %v); want median 22, tolerance 3×(24−20)/22", m, tolerance(m))
	}
	gate := func(text string) []string {
		var failed []string
		for _, c := range GateLayers(base, parse(t, text)).Checks {
			if !c.OK {
				failed = append(failed, c.Name)
			}
		}
		return failed
	}
	if failed := gate(fleet("21 p99_ms 1.0 wall_s", "90 p99_ms 9.0 wall_s", "23 p99_ms 1.1 wall_s")); len(failed) != 0 {
		t.Errorf("one slow run of three failed %v", failed)
	}
	if failed := gate(fleet("35 p99_ms 1.0 wall_s", "90 p99_ms 1.1 wall_s", "34.5 p99_ms 1.1 wall_s")); strings.Join(failed, " ") != "BenchmarkFleetChaos/p99_ms" {
		t.Errorf("a median p99 of 35 ms against 22 (limit 34) failed %v, want the p99 check only", failed)
	}
	if failed := gate(fleet("20 p99_ms 1.5 wall_s", "21 p99_ms 1.6 wall_s", "22 p99_ms 1.7 wall_s")); strings.Join(failed, " ") != "BenchmarkFleetChaos/wall_s" {
		t.Errorf("a 1.6 s median wall time against 1.05 (limit 1.35) failed %v, want the wall check only", failed)
	}
	if failed := gate("# host nproc=2 gomaxprocs=2\nBenchmarkSynthCorpus-2 1 1 ns/op 1.1 speedup\n"); len(failed) != 2 {
		t.Errorf("a measurement without the fleet benchmark failed %v, want both fleet checks", failed)
	}
}
