package synth

import (
	"context"
	"testing"

	"facc/internal/accel"
)

// TestOracleCacheBytes: a new cache holds nothing; a compile grows it by
// at least the reference outputs it stores and the signals it draws; the
// same compile again, every run a hit, adds nothing.
func TestOracleCacheBytes(t *testing.T) {
	cache := NewOracleCache()
	if b := cache.Bytes(); b != 0 {
		t.Fatalf("a new cache reports %d bytes", b)
	}
	f, err := cache.File("t.c", radix2Struct, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Func("fft")
	prof := pow2Profile("n", 64)
	compile := func() *Result {
		res, err := Synthesize(context.Background(), f, fn, accel.NewFFTA(), prof,
			Options{NumTests: 4, Workers: 1, Oracle: cache})
		if err != nil || res.Adapter == nil {
			t.Fatalf("synthesize: %+v %v", res, err)
		}
		return res
	}
	res := compile()

	var outputs int64
	for _, e := range cache.entries {
		if e.done {
			outputs += 16 * int64(len(e.out))
		}
	}
	var signals int64
	seen := map[*complex128]bool{}
	for _, tc := range cache.memo.Generator(424242, res.Adapter.Cand, prof).Cases(4) {
		if p := &tc.Input[0]; !seen[p] {
			seen[p] = true
			signals += 16 * int64(len(tc.Input))
		}
	}
	first := cache.Bytes()
	if outputs == 0 || first < outputs+signals+int64(len(radix2Struct)) {
		t.Errorf("cache reports %d bytes, want at least %d of outputs, %d of signals and %d of source",
			first, outputs, signals, len(radix2Struct))
	}

	compile()
	if got := cache.Bytes(); got != first {
		t.Errorf("repeating the compile grew the cache from %d to %d bytes", first, got)
	}
}
