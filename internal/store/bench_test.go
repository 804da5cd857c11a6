package store

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"facc/internal/obs"
)

// benchEntries is the size of the store the benchmarks run against: a
// few thousand adapters, as a daemon that has served the corpus under
// many tolerances and profiles holds.
const benchEntries = 3000

// benchAdapter is a synthetic adapter of the corpus's typical size,
// about 4.6 KB of C with newlines and quotes.
func benchAdapter(i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* Drop-in replacement %d for fft, targeting ffta. */\nvoid fft_accel(cpx *x, int n) {\n", i)
	for line := 0; b.Len() < 4600; line++ {
		fmt.Fprintf(&b, "    __acc_in[__i].re = (float)x[__i].re; /* \"pre-binding\" step %d */\n", line)
	}
	b.WriteString("}\n")
	return b.String()
}

func benchEntry(i int) Entry {
	return Entry{
		Target:   []string{"ffta", "powerquad", "fftw"}[i%3],
		Function: "fft",
		Sig:      fmt.Sprintf("void fft%d(cpx *x, int n)", i%25),
		AdapterC: benchAdapter(i),
		Trace:    fmt.Sprintf("%032x", i),
	}
}

// openBenchStore opens a store holding benchEntries entries, written by
// concurrent Puts so they share group commits, and returns it with its
// keys.
func openBenchStore(b *testing.B) (*Store, []string) {
	b.Helper()
	s, err := Open(b.TempDir(), obs.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, benchEntries)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i*7919+1)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += 32 {
				if err := s.Put(keys[i], benchEntry(i)); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	b.Cleanup(func() { s.Close() })
	return s, keys
}

// BenchmarkStoreGet times Get on Zipf(1.1)-drawn keys, as the
// store-churn workload's reader draws them: each Get reads its frame
// from the file, hot ones out of the operating system's page cache.
func BenchmarkStoreGet(b *testing.B) {
	s, keys := openBenchStore(b)
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(len(keys)-1))
	draws := make([]int, 4096)
	for i := range draws {
		draws[i] = int(z.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[draws[i%len(draws)]]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStorePut times Put overwriting existing entries: one
// durable commit (a frame append and an fsync) per call.
func BenchmarkStorePut(b *testing.B) {
	s, keys := openBenchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		e := benchEntry(j)
		e.Trace = fmt.Sprintf("put-%d", i)
		if err := s.Put(keys[j], e); err != nil {
			b.Fatal(err)
		}
	}
}
