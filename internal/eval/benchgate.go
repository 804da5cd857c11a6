package eval

// The bench gate. BENCH_layers.json holds the medians and quartiles of
// every gated number: the per-layer metrics of the traced benchmark
// (`sh benchmark/run.sh --trace 1 --runs N` over all four workloads) and
// the Go benchmarks that time what no workload measures
// (BenchmarkSynthCorpus, BenchmarkFleetChaos, run with -count N).
// ParseLayers folds that measurement text into the document, and
// GateLayers compares a fresh document against the committed one.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Layers is the BENCH_layers.json document.
type Layers struct {
	NProc      int           `json:"nproc"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Metrics    []LayerMetric `json:"metrics"`
}

// LayerMetric is one gated number over repeated runs: a benchmark metric
// named "<workload>/<metric>", or a Go benchmark's "<Benchmark>/<unit>".
type LayerMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
}

// A timing's tolerance is spreadFactor times its committed spread
// (Q3-Q1)/Median, and never under minTolerance, the bound every
// end-to-end metric has in BENCHMARK.json. The spread of five runs
// taken back to back understates how far the host drifts between two
// measurements minutes apart: over six gate runs on a 2-vCPU host one
// median moved by 2.2 of its spreads (serve-mixed server.http_ms_p50,
// +30% on a spread of 0.14), so the factor is 3.
const (
	spreadFactor = 3
	minTolerance = 0.25
)

// Numbers printed by the benchmark that the gate leaves out because they
// measure nothing: core.unattributed_frac and server.queue_wait_ms_p50
// subtract a replay on private caches from a compile on shared ones, and
// read below zero; obs.trace_overhead_frac divides one traced pass by
// one untraced pass, and reads below zero as often as not.
var ungated = map[string]bool{
	"core.unattributed_frac":   true,
	"obs.trace_overhead_frac":  true,
	"server.queue_wait_ms_p50": true,
}

// Undeclared benchmark metrics the gate keeps: the serve layers, which
// BENCHMARK.json leaves out because only serve-mixed has them.
var gatedExtras = map[string]bool{
	"server.http_ms_p50": true,
	"server.job_ms_p50":  true,
}

// higherIsBetter lists the gated numbers where more is better.
var higherIsBetter = map[string]bool{
	"synth.oracle_hit_frac": true,
	"speedup":               true,
}

var goBenchName = regexp.MustCompile(`^(Benchmark\w+?)(-\d+)?$`)

// ParseLayers folds the measurement text into a Layers document. It
// reads the benchmark's `--runs` table (host line, one section per
// workload, median/q1/q3 per metric, as printed) and Go benchmark result
// lines, whose custom metrics it reduces to median and quartiles itself.
// The table prints six significant digits, so a count takes its median
// from the benchmark's closing JSON line, which carries it exactly.
func ParseLayers(r io.Reader) (*Layers, error) {
	l := &Layers{}
	workload, declared, runs := "", false, 0
	var exact struct {
		Metrics map[string]struct{ Value float64 } `json:"metrics"`
	}
	goRuns := map[string][]float64{}
	var goOrder []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 0:
		case strings.HasPrefix(f[0], "{"):
			if err := json.Unmarshal(sc.Bytes(), &exact); err != nil {
				return nil, fmt.Errorf("bench gate: the benchmark's result line: %w", err)
			}
		case f[0] == "#" && len(f) > 2 && f[1] == "host":
			for _, kv := range f[2:] {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "nproc":
					l.NProc, _ = strconv.Atoi(v)
				case "gomaxprocs":
					l.GoMaxProcs, _ = strconv.Atoi(v)
				}
			}
		case f[0] == "#" && len(f) > 2 && f[1] == "workload":
			workload, declared, runs = f[2], true, 1
			for _, kv := range f[3:] {
				if v, ok := strings.CutPrefix(kv, "runs="); ok {
					runs, _ = strconv.Atoi(v)
				}
			}
		case f[0] == "#" && len(f) > 2 && f[1] == "not" && f[2] == "declared":
			declared = false
		case goBenchName.MatchString(f[0]) && len(f) >= 4:
			name := goBenchName.FindStringSubmatch(f[0])[1]
			for i := 2; i+1 < len(f); i += 2 {
				unit := f[i+1]
				if unit == "ns/op" || unit == "B/op" || unit == "allocs/op" || unit == "MB/s" {
					continue
				}
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					return nil, fmt.Errorf("bench gate: %q: %w", sc.Text(), err)
				}
				key := name + "/" + unit
				if goRuns[key] == nil {
					goOrder = append(goOrder, key)
				}
				goRuns[key] = append(goRuns[key], v)
			}
		case workload != "" && f[0] != "#" && len(f) >= 3:
			if ungated[f[0]] || (!declared && !gatedExtras[f[0]]) {
				continue
			}
			m, err := parseTableLine(f)
			if err != nil {
				return nil, fmt.Errorf("bench gate: %s: %q: %w", workload, sc.Text(), err)
			}
			m.Name, m.Runs = workload+"/"+m.Name, runs
			l.Metrics = append(l.Metrics, m)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i, m := range l.Metrics {
		if v, ok := exact.Metrics[m.Name]; ok && m.Unit == "count" && m.Q1 == m.Q3 {
			l.Metrics[i].Median, l.Metrics[i].Q1, l.Metrics[i].Q3 = v.Value, v.Value, v.Value
		}
	}
	for _, key := range goOrder {
		vals := goRuns[key]
		_, unit, _ := strings.Cut(key, "/")
		m := LayerMetric{Name: key, Unit: "x", Better: "lower", Runs: len(vals)}
		if i := strings.LastIndexByte(unit, '_'); i >= 0 {
			m.Unit = unit[i+1:]
		}
		if higherIsBetter[unit] {
			m.Better = "higher"
		}
		m.Q1, m.Median, m.Q3 = quartiles(vals)
		m.Q1, m.Median, m.Q3 = sig6(m.Q1), sig6(m.Median), sig6(m.Q3)
		l.Metrics = append(l.Metrics, m)
	}
	if len(l.Metrics) == 0 {
		return nil, fmt.Errorf("bench gate: no metrics in the measurement")
	}
	return l, nil
}

// parseTableLine reads one `--runs` table line:
//
//	name  median  unit  q1=...  q3=...  spread=...  n=...
//
// A single run prints no quartiles; they are the median then.
func parseTableLine(f []string) (LayerMetric, error) {
	m := LayerMetric{Name: f[0], Unit: f[2], Better: "lower"}
	var err error
	if m.Median, err = strconv.ParseFloat(f[1], 64); err != nil {
		return m, err
	}
	m.Q1, m.Q3 = m.Median, m.Median
	for _, kv := range f[3:] {
		k, v, _ := strings.Cut(kv, "=")
		switch k {
		case "q1":
			m.Q1, err = strconv.ParseFloat(v, 64)
		case "q3":
			m.Q3, err = strconv.ParseFloat(v, 64)
		}
		if err != nil {
			return m, err
		}
	}
	if higherIsBetter[m.Name] {
		m.Better = "higher"
	}
	return m, nil
}

// tolerance is the fractional move from a committed metric's median the
// gate allows: none for a count, which must repeat exactly.
func tolerance(m LayerMetric) float64 {
	if m.Unit == "count" {
		return 0
	}
	if m.Median == 0 {
		return minTolerance
	}
	return math.Max(minTolerance, spreadFactor*(m.Q3-m.Q1)/math.Abs(m.Median))
}

// sig6 rounds v to the six significant digits the benchmark's table
// prints.
func sig6(v float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 6, 64), 64)
	return r
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4), the
// default "exclusive" method the benchmark's --runs table prints. One
// value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

// GateCheck is one compared metric.
type GateCheck struct {
	Name     string
	Baseline float64
	Fresh    float64
	// Limit is the boundary Fresh value that passes: the highest for a
	// lower-is-better metric, the lowest for a higher-is-better one, the
	// only one for a count.
	Limit float64
	OK    bool
}

// GateReport is the full comparison outcome.
type GateReport struct {
	Base, Fresh *Layers
	Checks      []GateCheck
	Failures    int
}

// OK reports whether every check passed.
func (r *GateReport) OK() bool { return r.Failures == 0 }

// GateLayers compares every committed metric's fresh median against the
// committed one. A count must match exactly; a timing may move by its
// tolerance in the worse direction; a metric missing from the fresh
// measurement fails. The corpus speedup must also reach 1.0 when the
// fresh measurement ran on two or more cores.
func GateLayers(base, fresh *Layers) *GateReport {
	rep := &GateReport{Base: base, Fresh: fresh}
	got := map[string]LayerMetric{}
	for _, m := range fresh.Metrics {
		got[m.Name] = m
	}
	for _, b := range base.Metrics {
		c := GateCheck{Name: b.Name, Baseline: b.Median, Fresh: math.NaN(), Limit: b.Median}
		f, ok := got[b.Name]
		if ok {
			c.Fresh = f.Median
		}
		switch {
		case b.Unit == "count":
			c.OK = ok && f.Median == b.Median
		case b.Better == "higher":
			c.Limit = b.Median * (1 - tolerance(b))
			if strings.HasSuffix(b.Name, "/speedup") && fresh.GoMaxProcs >= 2 {
				c.Limit = math.Max(c.Limit, 1)
			}
			c.OK = ok && f.Median >= c.Limit
		default:
			c.Limit = b.Median * (1 + tolerance(b))
			c.OK = ok && f.Median <= c.Limit
		}
		if !c.OK {
			rep.Failures++
		}
		rep.Checks = append(rep.Checks, c)
	}
	return rep
}

// WriteText prints the host shapes, one line per check and the verdict.
func (r *GateReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "bench gate: committed medians from nproc=%d gomaxprocs=%d, fresh from nproc=%d gomaxprocs=%d\n",
		r.Base.NProc, r.Base.GoMaxProcs, r.Fresh.NProc, r.Fresh.GoMaxProcs)
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %s %-46s committed %12.6g  fresh %12.6g  limit %12.6g\n",
			status, c.Name, c.Baseline, c.Fresh, c.Limit)
	}
	if r.OK() {
		fmt.Fprintf(w, "bench gate: PASS (%d checks)\n", len(r.Checks))
	} else {
		fmt.Fprintf(w, "bench gate: FAIL (%d of %d checks regressed)\n", r.Failures, len(r.Checks))
	}
}
