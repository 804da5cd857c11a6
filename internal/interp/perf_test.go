package interp_test

import (
	"testing"
	"unsafe"

	"facc/internal/bench"
	"facc/internal/interp"
)

// The interpreter's speed rests on two facts these tests pin: a Value
// fits in four words, and running a corpus FFT allocates almost nothing
// beyond the C program's own arrays.

func TestValueIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(interp.Value{}); size > 32 {
		t.Errorf("interp.Value is %d bytes, want at most 32", size)
	}
}

func corpusRunner(t testing.TB, name string, n int) (*bench.Runner, []complex128) {
	bm, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := bench.NewRunner(bm)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(float64(i%7), float64(i%5))
	}
	return r, in
}

// runAllocs returns the Go allocations of one run of a corpus program.
func runAllocs(t *testing.T, name string, n int) float64 {
	r, in := corpusRunner(t, name, n)
	return testing.AllocsPerRun(5, func() {
		r.Machine.Reset()
		if _, err := r.Run(in); err != nil {
			t.Fatal(err)
		}
	})
}

// TestIterditAllocs bounds the Go allocations of one 256-point iterdit
// run: locals live in frame slots and struct copies move cells, so a run
// allocates little beyond the program's own arrays.
func TestIterditAllocs(t *testing.T) {
	if allocs := runAllocs(t, "iterdit", 256); allocs > 100 {
		t.Errorf("one iterdit run at n=256 makes %.0f allocations, want at most 100", allocs)
	}
}

// TestDFT12Allocs bounds the Go allocations of one 64-point dft12 run,
// which calls cexp n² times: a builtin call passes its arguments without
// allocating.
func TestDFT12Allocs(t *testing.T) {
	if allocs := runAllocs(t, "dft12", 64); allocs > 20 {
		t.Errorf("one dft12 run at n=64 makes %.0f allocations, want at most 20", allocs)
	}
}
