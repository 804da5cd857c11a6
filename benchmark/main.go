// Command benchmark measures FACC end to end and layer by layer.
//
// Usage, from the repository root:
//
//	sh benchmark/run.sh [-workload W] [-seed S] [-seconds N] [-trace 0|1] [-runs N]
//
// Each workload runs in its own child process against the real entry
// points users touch: the facc and faccd binaries (built untimed into
// .bench_build/bin), facc.CompileContext and store.Store. Every output is
// checked against benchmark/golden.json. With -trace 0 the run reports the
// end-to-end metrics BENCHMARK.json declares; with -trace 1 it replays the
// workload in-process and reports the per-layer metrics instead. The last
// line of standard output is the result as one JSON object. See
// benchmark/README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloads = map[string]func(*env, *result) error{
	"cli-cold":     cliCold,
	"library-warm": libraryWarm,
	"serve-mixed":  serveMixed,
	"store-churn":  storeChurn,
}

var workloadOrder = []string{"cli-cold", "library-warm", "serve-mixed", "store-churn"}

// A run, set-up included, must finish well inside this; a child that
// does not is killed and the run fails.
const childTimeout = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	runs     int
	programs string
	regen    bool
	child    bool
	warmup   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs (run i of -runs uses seed+i)")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long each run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	flag.IntVar(&o.runs, "runs", 1, "runs per workload; above 1, print each metric's median, quartiles and spread")
	flag.StringVar(&o.programs, "programs", "", "comma-separated corpus programs to use (default: all 25)")
	flag.BoolVar(&o.regen, "regen-golden", false, "recompute benchmark/golden.json through the CLI, the library and the daemon")
	flag.BoolVar(&o.child, "child", false, "run one workload in this process (used by the benchmark itself)")
	flag.BoolVar(&o.warmup, "warmup", false, "with -child: time library-warm's warm-up pass alone (used by the benchmark itself)")
	flag.Parse()
	if flag.NArg() != 0 || (o.trace != 0 && o.trace != 1) || o.runs < 1 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if o.workload != "all" && workloads[o.workload] == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	var err error
	switch {
	case o.child:
		err = runChild(o)
	default:
		err = orchestrate(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// findRoot walks up from the working directory to the facc module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(data), "module facc\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the facc repository (no go.mod declaring module facc)")
		}
		dir = parent
	}
}

// buildDir holds everything the benchmark builds and writes outside its
// own directory; it is git-ignored.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// runChild runs one workload in this process and writes its result as JSON
// on standard output.
func runChild(o options) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	pairs, err := loadPairs(root, o.programs)
	if err != nil {
		return err
	}
	build := buildDir(root)
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(build, "tmp"), o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	e := &env{
		ctx:      ctx,
		work:     work,
		traces:   filepath.Join(build, "traces"),
		profiles: filepath.Join(root, "benchmark", "profiles"),
		faccBin:  filepath.Join(build, "bin", "facc"),
		faccdBin: filepath.Join(build, "bin", "faccd"),
		seed:     o.seed,
		seconds:  time.Duration(o.seconds * float64(time.Second)),
		traced:   o.trace == 1,
		pairs:    pairs,
		programs: o.programs,
		rec:      newRecorder(),
	}
	if o.programs != "" {
		// The committed profiles describe the whole corpus.
		e.profiles = e.traces
	}
	r := &result{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: e.traced}
	if e.traced {
		if err := os.MkdirAll(e.traces, 0o755); err != nil {
			return err
		}
	}
	run := workloads[o.workload]
	if o.warmup {
		run = libraryWarmup
	}
	if err := run(e, r); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if e.traced {
		self := e.rec.selfTimes()
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			r.extra("self."+name, msOf(self[name]), "ms", 1)
		}
		if err := e.rec.writeChrome(filepath.Join(e.traces, o.workload+".json")); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// spec is BENCHMARK.json, the declared metrics and their bounds.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// host is the provenance stamped on every report.
func host(root string, o options) string {
	commit := "none"
	cmd := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD")
	// Never let git look above the root for a repository.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("# host nproc=%d gomaxprocs=%d go=%s os=%s/%s commit=%s seed=%d seconds=%g",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		commit, o.seed, o.seconds)
}

// buildBinaries builds facc and faccd into .bench_build/bin.
func buildBinaries(root string) error {
	bin := filepath.Join(buildDir(root), "bin") + string(filepath.Separator)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/facc", "./cmd/faccd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building facc and faccd: %v\n%s", err, out)
	}
	return nil
}

// spawn runs one workload in a child process and decodes its result.
func spawn(o options, workload string, seed int64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout+5*time.Second)
	defer cancel()
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", workload,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-programs", o.programs, fmt.Sprintf("-warmup=%v", o.warmup))
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = killWithParent
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (seed %d): %w", workload, seed, err)
	}
	var r result
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s: decoding child result: %w", workload, err)
	}
	return &r, nil
}

func orchestrate(o options) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if err := buildBinaries(root); err != nil {
		return err
	}
	if o.regen {
		return regenGolden(root)
	}
	declared := sp.EndToEnd
	if o.trace == 1 {
		declared = sp.PerLayer
	}
	names := workloadOrder
	if o.workload != "all" {
		names = []string{o.workload}
	}
	fmt.Println(host(root, o))
	final := contract{Correct: true, Metrics: map[string]contractMetric{}}
	for _, w := range names {
		var runs []*result
		for i := 0; i < o.runs; i++ {
			r, err := spawn(o, w, o.seed+int64(i))
			if err != nil {
				return err
			}
			if err := checkDeclared(r, declared); err != nil {
				return err
			}
			runs = append(runs, r)
			final.Attempted += r.Attempted
			final.Failed += r.Failed
		}
		prefix := ""
		if len(names) > 1 {
			prefix = w + "/"
		}
		for name, m := range report(os.Stdout, w, runs, declared) {
			final.Metrics[prefix+name] = m
		}
	}
	final.Correct = final.Failed == 0 && final.Attempted > 0
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
	return nil
}

// contract is the result line: exactly these keys.
type contract struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checkDeclared fails a run that does not report every declared metric,
// finite and in its declared unit.
func checkDeclared(r *result, declared []specMetric) error {
	got := map[string]metric{}
	for _, m := range r.Metrics {
		got[m.Name] = m
	}
	for _, d := range declared {
		m, ok := got[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("%s did not report %s", r.Workload, d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("%s reported %s in %s, BENCHMARK.json says %s", r.Workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("%s reported %s = %v", r.Workload, d.Name, m.Value)
		}
	}
	return nil
}

// report prints one workload's runs and returns the declared metrics'
// values (the median over runs). With more than one run it prints each
// metric's quartiles and spread — (q3-q1)/median, as Python's
// statistics.quantiles gives them — and flags a declared end-to-end metric
// whose spread exceeds its bound.
func report(w io.Writer, workload string, runs []*result, declared []specMetric) map[string]contractMetric {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	seeds := make([]string, len(runs))
	for i, r := range runs {
		seeds[i] = fmt.Sprint(r.Seed)
	}
	fmt.Fprintf(w, "# workload %s trace=%v runs=%d seeds=%s attempted=%d failed=%d\n",
		workload, runs[0].Trace, len(runs), strings.Join(seeds, ","), attempted, failed)
	for _, r := range runs {
		for _, p := range r.Problems {
			fmt.Fprintf(w, "# FAILED seed %d: %s\n", r.Seed, p)
		}
	}
	bound := map[string]float64{}
	for _, d := range declared {
		bound[d.Name] = d.Bound
	}
	out := map[string]contractMetric{}
	table := func(ms [][]metric, declaredOnly bool) {
		for i, m := range ms[0] {
			if _, ok := bound[m.Name]; ok != declaredOnly {
				continue
			}
			vals := make([]float64, 0, len(ms))
			n := 0
			for _, run := range ms {
				if i < len(run) && run[i].Name == m.Name {
					vals = append(vals, run[i].Value)
					n += run[i].N
				}
			}
			if len(vals) < 2 {
				if declaredOnly {
					out[m.Name] = contractMetric{Value: vals[0], Unit: m.Unit}
				}
				fmt.Fprintf(w, "%-30s %14.6g %-6s n=%d\n", m.Name, vals[0], m.Unit, n)
				continue
			}
			q1, q2, q3 := quartiles(vals)
			if declaredOnly {
				out[m.Name] = contractMetric{Value: q2, Unit: m.Unit}
			}
			spread := (q3 - q1) / math.Abs(q2)
			flag := ""
			if b := bound[m.Name]; b > 0 && spread > b {
				flag = fmt.Sprintf("  SPREAD > BOUND %.3g", b)
			}
			fmt.Fprintf(w, "%-30s %14.6g %-6s q1=%.6g q3=%.6g spread=%.4f n=%d%s\n",
				m.Name, q2, m.Unit, q1, q3, spread, n, flag)
		}
	}
	metrics := make([][]metric, len(runs))
	extras := make([][]metric, len(runs))
	for i, r := range runs {
		metrics[i], extras[i] = r.Metrics, r.Extras
	}
	table(metrics, true)
	if len(extras[0]) > 0 {
		fmt.Fprintln(w, "# not declared in BENCHMARK.json:")
		table(extras, false)
	}
	return out
}
