package minic

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkParse lexes and parses the 25 corpus programs per iteration,
// reporting source throughput (MB/s) and allocations per pass.
func BenchmarkParse(b *testing.B) {
	paths, err := filepath.Glob("../bench/testdata/*.c")
	if err != nil || len(paths) == 0 {
		b.Fatalf("corpus: %v (%d files)", err, len(paths))
	}
	srcs := make([]string, len(paths))
	var size int64
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			b.Fatal(err)
		}
		srcs[i] = string(data)
		size += int64(len(data))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, src := range srcs {
			if _, err := Parse(paths[j], src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
