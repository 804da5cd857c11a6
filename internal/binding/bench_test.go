package binding

import (
	"testing"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/bench"
	"facc/internal/minic"
)

// BenchmarkEnumerate is binding enumeration for one corpus program
// against the three targets, under its profile: the candidate set a
// compile of each target tests, keys rendered once each.
func BenchmarkEnumerate(b *testing.B) {
	bm, err := bench.ByName("bigmixed")
	if err != nil {
		b.Fatal(err)
	}
	f, err := minic.ParseAndCheck(bm.File, bm.Source())
	if err != nil {
		b.Fatal(err)
	}
	fi := analysis.AnalyzeFunc(f, f.Func(bm.Entry))
	prof := analysis.NewProfile()
	for name, vals := range bm.ProfileValues {
		for _, v := range vals {
			prof.ObserveInt(name, v)
		}
	}
	specs := []*accel.Spec{accel.NewFFTA(), accel.NewPowerQuad(), accel.NewFFTWLib()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if len(Enumerate(fi, spec, prof, Options{})) == 0 {
				b.Fatalf("no %s candidates", spec.Name)
			}
		}
	}
}
