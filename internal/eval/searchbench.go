package eval

// The search benchmark: one sequential (Workers=1, fixed seed) compile
// of the supported corpus with the kill table attached, so the
// discriminating-input ranking and the funnel are reproducible. The
// resulting SearchSummary is what `faccbench -experiment searchbench`
// prints and merges into BENCH_synth.json's "search" section.

import (
	"context"

	"facc/internal/accel"
	"facc/internal/bench"
	"facc/internal/core"
	"facc/internal/obs"
	"facc/internal/synth"
)

// SearchBench compiles the supported corpus once per target at Workers=1
// into kills, which collects kill attribution and funnel counters. It
// fuzzes exhaustively (every binding candidate, not just to the first
// winner): on flexible APIs like FFTW the first candidate routinely
// survives, so first-winner search records no kills at all and the
// discriminating-input ranking would be empty. The caller owns the
// table: render it with WriteSearchReport or summarize it for
// BENCH_synth.json.
func SearchBench(ctx context.Context, targets []string, numTests int, kills *obs.KillTable) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, target := range targets {
		spec, err := accel.SpecByName(target)
		if err != nil {
			return err
		}
		for _, b := range bench.SupportedSuite() {
			if _, err := core.CompileSource(ctx, b.File, b.Source(), spec, core.Options{
				Entry:         b.Entry,
				ProfileValues: b.ProfileValues,
				Kills:         kills,
				Synth:         synth.Options{NumTests: numTests, Workers: 1, ExhaustAll: true},
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
