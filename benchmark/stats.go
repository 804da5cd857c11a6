package main

import (
	"math"
	"sort"
	"time"
)

// metric is one measured number. N is the sample count behind it (the
// number of timed operations for a percentile, 1 for a single reading).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is what one workload run reports to the orchestrating process.
// Metrics carries the declared metrics; Extras carries workload-specific
// numbers (hit/miss splits, self-time tables) that BENCHMARK.json does not
// declare because they do not exist on every workload.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []metric `json:"metrics"`
	Extras    []metric `json:"extras,omitempty"`
}

// maxProblems caps how many mismatch descriptions a run keeps; the count
// in Failed stays exact.
const maxProblems = 10

// check counts one verified output; a non-nil err is a wrong, failed or
// refused operation.
func (r *result) check(what string, err error) {
	r.Attempted++
	if err == nil {
		return
	}
	r.Failed++
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, what+": "+err.Error())
	}
}

// merge adds the checked outputs of o to r.
func (r *result) merge(o *result) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for _, p := range o.Problems {
		if len(r.Problems) < maxProblems {
			r.Problems = append(r.Problems, p)
		}
	}
}

func (r *result) add(name string, v float64, unit string, n int) {
	r.Metrics = append(r.Metrics, metric{name, v, unit, n})
}

func (r *result) extra(name string, v float64, unit string, n int) {
	r.Extras = append(r.Extras, metric{name, v, unit, n})
}

// quantile returns the Harrell–Davis estimate of the q-quantile of xs (NaN
// for no samples), for 0 < q < 1: a mean of all order statistics weighted
// by the Beta(q(n+1), (1-q)(n+1)) mass over each one's share of [0, 1].
// Unlike a single order statistic it does not jump when the quantile falls
// in a gap between clusters of latencies, as the compile workloads' do
// between one program's compile time and the next. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	// Each order statistic's weight is the beta density integrated over
	// [i/n, (i+1)/n] by the midpoint rule on m points, in logs until the
	// largest is known so that large n does not underflow.
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	m := 1 + 256/n
	logw := make([]float64, n*m)
	top := math.Inf(-1)
	for k := range logw {
		x := (float64(k) + 0.5) / float64(n*m)
		logw[k] = (a-1)*math.Log(x) + (b-1)*math.Log1p(-x)
		top = max(top, logw[k])
	}
	var sum, total float64
	for k, lw := range logw {
		w := math.Exp(lw - top)
		sum += w * s[k/m]
		total += w
	}
	return sum / total
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is how run-to-run spread is judged.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// addLatency records the end-to-end latency and throughput metrics of ops
// with latencies lat, in milliseconds, completed in elapsed. The p90 is
// printed but not declared: on the compile workloads and serve-mixed it is
// the heaviest compiles, which a busy host slows most, so it spreads from
// run to run more than the throughput, which carries their cost as well.
func (r *result) addLatency(lat []float64, elapsed time.Duration) {
	r.add("ops_per_s", float64(len(lat))/elapsed.Seconds(), "1/s", len(lat))
	r.add("latency_ms_p50", quantile(lat, 0.5), "ms", len(lat))
	r.extra("latency_ms_p90", quantile(lat, 0.9), "ms", len(lat))
}
