package eval

// The bench gate: compares a freshly measured BENCH_synth.json /
// BENCH_serve.json pair against the committed baselines and fails on
// regressions beyond a tolerance — the CI tripwire that keeps the
// synthesis engine's wall-clock and the ledger's waste ratio honest.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// GateConfig names the artifact pairs to compare. An empty path skips
// that pair, so the gate can run on synth-only or serve-only artifacts.
type GateConfig struct {
	BaselineSynth string
	FreshSynth    string
	BaselineServe string
	FreshServe    string
	// Tolerance is the allowed fractional regression (0.25 = 25%).
	// <= 0 gets the default of 0.25 — generous because CI machines are
	// noisy; the gate exists to catch step-function regressions, not
	// single-digit jitter.
	Tolerance float64
}

// GateCheck is one compared metric.
type GateCheck struct {
	Name     string  `json:"name"`
	Baseline float64 `json:"baseline"`
	Fresh    float64 `json:"fresh"`
	// Limit is the boundary Fresh value that passes: the highest for
	// lower-is-better checks, the lowest for floor checks.
	Limit float64 `json:"limit"`
	OK    bool    `json:"ok"`
}

// GateReport is the full comparison outcome.
type GateReport struct {
	Tolerance float64     `json:"tolerance"`
	Checks    []GateCheck `json:"checks"`
	Failures  int         `json:"failures"`
}

// OK reports whether every check passed.
func (r *GateReport) OK() bool { return r.Failures == 0 }

// BenchGate loads the configured artifact pairs and compares wall-clock
// and waste-ratio metrics. Lower is better for every gated metric; a
// fresh value beyond baseline*(1+tolerance) fails. Ratio-valued metrics
// (waste) near zero additionally get an absolute floor of the tolerance
// itself, so a 0.00 → 0.01 drift does not fail on division noise.
func BenchGate(cfg GateConfig) (*GateReport, error) {
	tol := cfg.Tolerance
	if tol <= 0 {
		tol = 0.25
	}
	rep := &GateReport{Tolerance: tol}

	if cfg.BaselineSynth != "" && cfg.FreshSynth != "" {
		var base, fresh SynthBenchReport
		if err := loadJSON(cfg.BaselineSynth, &base); err != nil {
			return nil, err
		}
		if err := loadJSON(cfg.FreshSynth, &fresh); err != nil {
			return nil, err
		}
		freshRuns := map[int]SynthBenchRun{}
		for _, run := range fresh.Runs {
			freshRuns[run.Workers] = run
		}
		for _, b := range base.Runs {
			f, ok := freshRuns[b.Workers]
			if !ok {
				// Worker counts are machine-dependent (GOMAXPROCS); a
				// baseline run with no fresh counterpart is not a
				// regression, just a different machine shape.
				continue
			}
			rep.check(fmt.Sprintf("synth.wall_seconds[workers=%d]", b.Workers),
				b.WallSeconds, f.WallSeconds, false)
			rep.check(fmt.Sprintf("synth.waste_ratio[workers=%d]", b.Workers),
				b.WasteRatio, f.WasteRatio, true)
		}
		// Search-observatory checks are skip-if-absent: a baseline
		// committed before the search section existed gates nothing.
		// Once the baseline carries one, the fresh artifact must too,
		// and its kill count must not collapse: a fresh run that kills
		// nothing where the baseline killed candidates is a search
		// regression (kill attribution broken or the funnel no longer
		// dispatching candidates), not jitter. Family attribution is
		// pinned by TestSearchReportGolden and
		// TestSearchBenchMultiFamilyPerTarget, since a first-winner
		// corpus run finds no multi-family case to floor.
		if base.Search != nil {
			fk := -1.0
			if fresh.Search != nil {
				fk = float64(fresh.Search.Killed)
			}
			rep.checkFloor("synth.search.killed",
				float64(base.Search.Killed), fk)
		}
		// ROADMAP targets promoted to floors on the fresh artifact.
		// Speedup: running a candidate's cases in parallel must not be
		// a slowdown. Strict ≥1.0 needs real cores and is absolute
		// there (no baseline drift can relax it). On a GOMAXPROCS=1
		// host the Workers=N run executes a superset of the Workers=1
		// work on one core: every case Workers=1 runs, plus the cases
		// a loser started past its kill before cancellation. That
		// overhead is real and noisy (its volume depends on where
		// cancellation lands), so the serialized gate
		// is relative like the wall-time gates: the fresh ratio must
		// not fall more than the tolerance below the committed
		// baseline's, with 1/(1+2·tol) as the backstop when the
		// baseline predates the field or was measured on real cores.
		if n := len(fresh.Runs); n >= 2 && fresh.Speedup > 0 {
			w1, wn := fresh.Runs[0], fresh.Runs[n-1]
			if w1.Workers == 1 && wn.Workers > 1 {
				floor := 1.0
				if fresh.GoMaxProcs <= 1 {
					floor = 1 / (1 + 2*tol)
					if base.Speedup > 0 && base.Speedup < 1 {
						floor = base.Speedup / (1 + tol)
					}
				}
				rep.checkTarget(fmt.Sprintf("synth.speedup[w1/w%d]", wn.Workers),
					floor, fresh.Speedup, false)
			}
		}
		// Cross-target oracle sharing: compiles of one program for
		// ffta+powerquad+fftw must reuse each other's reference runs —
		// a >50% hit rate means most lookups were shared, i.e. the
		// target-independent key actually deduplicates across targets.
		if ex := fresh.Exhaustive; ex != nil && ex.CrossTarget != nil {
			rep.checkTarget("synth.cross_target.multi_candidate_hit_rate",
				0.5, ex.CrossTarget.MultiCandidateHitRate, true)
		}
	}

	if cfg.BaselineServe != "" && cfg.FreshServe != "" {
		var base, fresh ServeBenchReport
		if err := loadJSON(cfg.BaselineServe, &base); err != nil {
			return nil, err
		}
		if err := loadJSON(cfg.FreshServe, &fresh); err != nil {
			return nil, err
		}
		rep.check("serve.wall_seconds", base.WallSeconds, fresh.WallSeconds, false)
		rep.check("serve.latency_ms_p99", base.LatencyMsP99, fresh.LatencyMsP99, false)
		// Fleet chaos checks are skip-if-absent like the search block: a
		// baseline from before the fleet existed gates nothing, but once
		// one carries the block the fresh artifact must reproduce it and
		// hold the robustness invariants absolutely — these are
		// correctness contracts, not performance numbers, so no tolerance
		// applies to them.
		if base.Fleet != nil {
			if fresh.Fleet == nil {
				rep.checkTarget("serve.fleet.present", 1, 0, false)
			} else {
				bf, ff := base.Fleet, fresh.Fleet
				rep.check("serve.fleet.latency_ms_p99", bf.LatencyMsP99, ff.LatencyMsP99, false)
				rep.check("serve.fleet.wall_seconds", bf.WallSeconds, ff.WallSeconds, false)
				// Zero dropped acknowledged jobs, ever: baseline 0 makes
				// the lower-is-better limit exactly 0.
				rep.check("serve.fleet.acked_dropped", 0, float64(ff.AckedDropped), false)
				rep.checkTarget("serve.fleet.adapters_consistent", 1, boolMetric(ff.AdaptersConsistent), false)
				// Every offered request must complete despite the kill and
				// the lossy partition.
				frac := 0.0
				if ff.Requests > 0 {
					frac = float64(ff.Completed) / float64(ff.Requests)
				}
				rep.checkTarget("serve.fleet.completed_frac", 1, frac, false)
				// Rebalance after the kill must land inside the probe
				// budget the run declared (threshold+2 probe intervals).
				rep.check("serve.fleet.rebalance_ms", ff.RebalanceBudgetMs, ff.RebalanceMs, false)
				// The chaos actually exercised failover paths: if the
				// baseline recorded failovers, a fresh run with none means
				// the kill stopped mattering (harness regression).
				rep.checkFloor("serve.fleet.failovers", float64(bf.Failovers), float64(ff.Failovers))
			}
		}
	}

	if len(rep.Checks) == 0 {
		return nil, fmt.Errorf("bench gate: nothing to compare (need a baseline+fresh artifact pair)")
	}
	return rep, nil
}

// check records one lower-is-better comparison. ratio marks metrics
// already normalized to [0,1], which get the absolute floor.
func (r *GateReport) check(name string, baseline, fresh float64, ratio bool) {
	limit := baseline * (1 + r.Tolerance)
	if ratio && limit < r.Tolerance {
		limit = r.Tolerance
	}
	c := GateCheck{Name: name, Baseline: baseline, Fresh: fresh, Limit: limit, OK: fresh <= limit}
	if !c.OK {
		r.Failures++
	}
	r.Checks = append(r.Checks, c)
}

// checkTarget records one absolute higher-is-better floor: fresh must
// reach floor (exceed it when strict). Unlike check/checkFloor this does
// not compare against the baseline artifact — the floor is a standing
// target, reported in the Baseline column for context.
func (r *GateReport) checkTarget(name string, floor, fresh float64, strict bool) {
	ok := fresh >= floor
	if strict {
		ok = fresh > floor
	}
	c := GateCheck{Name: name, Baseline: floor, Fresh: fresh, Limit: floor, OK: ok}
	if !c.OK {
		r.Failures++
	}
	r.Checks = append(r.Checks, c)
}

// checkFloor records one higher-is-better presence check: when the
// baseline has any signal (>= 1), the fresh value must keep at least 1 —
// the gate catches collapse-to-zero (or a missing section, passed as a
// negative fresh value), not count jitter.
func (r *GateReport) checkFloor(name string, baseline, fresh float64) {
	limit := 0.0
	if baseline >= 1 {
		limit = 1
	}
	c := GateCheck{Name: name, Baseline: baseline, Fresh: fresh, Limit: limit, OK: fresh >= limit}
	if !c.OK {
		r.Failures++
	}
	r.Checks = append(r.Checks, c)
}

// WriteText prints one line per check plus the verdict.
func (r *GateReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Bench gate (tolerance %.0f%%):\n", 100*r.Tolerance)
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %s %-36s baseline %10.3f  fresh %10.3f  limit %10.3f\n",
			status, c.Name, c.Baseline, c.Fresh, c.Limit)
	}
	if r.OK() {
		fmt.Fprintf(w, "bench gate: PASS (%d checks)\n", len(r.Checks))
	} else {
		fmt.Fprintf(w, "bench gate: FAIL (%d of %d checks regressed)\n", r.Failures, len(r.Checks))
	}
}

// boolMetric maps a pass/fail invariant onto the gate's numeric floors.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench gate: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("bench gate: %s: %w", path, err)
	}
	return nil
}
