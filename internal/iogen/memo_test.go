package iogen_test

// Memo exactness: a generator drawing through a shared memo must produce
// exactly the cases a fresh generator produces, for every candidate the
// corpus enumerates, whether the memo is shared by a program's three
// targets (as synthesis shares its oracle cache) or by goroutines
// drawing at once.

import (
	"math"
	"sync"
	"testing"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/bench"
	"facc/internal/binding"
	"facc/internal/core"
	"facc/internal/iogen"
	"facc/internal/minic"
)

const (
	memoSeed  = 424242 // synthesis's default seed
	memoCases = 10
)

// program is one corpus program's candidates on every target.
type program struct {
	name  string
	prof  *analysis.Profile
	cands []*binding.Candidate
}

// corpusPrograms enumerates every binding candidate of every corpus
// program on every target.
func corpusPrograms(tb testing.TB) []program {
	tb.Helper()
	var out []program
	for _, bm := range bench.Suite() {
		f, err := minic.ParseAndCheck(bm.File, bm.Source())
		if err != nil {
			tb.Fatalf("%s: %v", bm.Name, err)
		}
		fn := f.Func(bm.Entry)
		if fn == nil {
			tb.Fatalf("%s: no function %q", bm.Name, bm.Entry)
		}
		p := program{name: bm.Name, prof: core.BuildProfile(bm.ProfileValues)}
		fi := analysis.AnalyzeFunc(f, fn)
		for _, spec := range accel.Specs() {
			p.cands = append(p.cands, binding.Enumerate(fi, spec, p.prof, binding.Options{})...)
		}
		out = append(out, p)
	}
	return out
}

// sameCase reports how got differs from want, or "" when UserLen,
// AccelLen, every scalar, every input bit and the digest agree.
func sameCase(got, want iogen.Case) string {
	switch {
	case got.UserLen != want.UserLen || got.AccelLen != want.AccelLen:
		return "lengths differ"
	case len(got.Scalars) != len(want.Scalars):
		return "scalar sets differ"
	case len(got.Input) != len(want.Input):
		return "input lengths differ"
	case iogen.CaseDigest(got) != iogen.CaseDigest(want):
		return "digests differ"
	}
	for k, v := range want.Scalars {
		if w, ok := got.Scalars[k]; !ok || w != v {
			return "scalar " + k + " differs"
		}
	}
	for i := range want.Input {
		if math.Float64bits(real(got.Input[i])) != math.Float64bits(real(want.Input[i])) ||
			math.Float64bits(imag(got.Input[i])) != math.Float64bits(imag(want.Input[i])) {
			return "input bits differ"
		}
	}
	return ""
}

// TestMemoMatchesFresh draws cases 0..9 of every enumerated candidate of
// every (program, target) pair twice: from a fresh generator, and from a
// generator on one memo the program's three targets share. The cases
// must agree, every draw of one signal must hand out one slice, and the
// memo's case digest must equal CaseDigest's, whether the memo computes
// or keeps it.
func TestMemoMatchesFresh(t *testing.T) {
	candidates := 0
	for _, p := range corpusPrograms(t) {
		memo := iogen.NewMemo()
		type sigKey struct {
			n int64
			i int
		}
		shared := map[sigKey]*complex128{}
		for _, cand := range p.cands {
			fresh := iogen.New(memoSeed, cand, p.prof)
			g := memo.Generator(memoSeed, cand, p.prof)
			if fresh.Viable() != g.Viable() {
				t.Fatalf("%s %s: viability differs", p.name, cand.Key())
			}
			if g.RefSig() != iogen.RefSig(cand) {
				t.Fatalf("%s %s: generator RefSig %q, want %q", p.name, cand.Key(), g.RefSig(), iogen.RefSig(cand))
			}
			if !g.Viable() {
				continue
			}
			candidates++
			for i := 0; i < memoCases; i++ {
				got, want := g.Case(i), fresh.Case(i)
				if d := sameCase(got, want); d != "" {
					t.Errorf("%s %s case %d: memoized and fresh draws differ: %s", p.name, cand.Key(), i, d)
				}
				for pass := 0; pass < 2; pass++ {
					if d, w := memo.CaseDigest(got), iogen.CaseDigest(want); d != w {
						t.Errorf("%s %s case %d pass %d: memoized digest %s, CaseDigest %s",
							p.name, cand.Key(), i, pass, d, w)
					}
				}
				k := sigKey{got.AccelLen, i}
				if first, ok := shared[k]; !ok {
					shared[k] = &got.Input[0]
				} else if first != &got.Input[0] {
					t.Errorf("%s %s case %d: the memo handed out a second copy of one signal", p.name, cand.Key(), i)
				}
			}
		}
	}
	if candidates == 0 {
		t.Fatal("no viable candidate; the check is vacuous")
	}
	t.Logf("%d candidates × %d cases agree", candidates, memoCases)
}

// TestMemoConcurrentMatchesFresh has several goroutines draw the same
// candidates' cases from one memo at once, each walking the candidates
// from a different start, and checks every case against a fresh draw.
func TestMemoConcurrentMatchesFresh(t *testing.T) {
	type job struct {
		name string
		gen  func(*iogen.Memo) *iogen.Generator
		want []iogen.Case
	}
	var jobs []job
	for _, p := range corpusPrograms(t) {
		for _, cand := range p.cands {
			fresh := iogen.New(memoSeed, cand, p.prof)
			if !fresh.Viable() {
				continue
			}
			prof := p.prof
			jobs = append(jobs, job{
				name: p.name + " " + cand.Key(),
				gen:  func(m *iogen.Memo) *iogen.Generator { return m.Generator(memoSeed, cand, prof) },
				want: fresh.Cases(memoCases),
			})
		}
	}
	memo := iogen.NewMemo()
	const goroutines = 4
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for w := 0; w < goroutines; w++ {
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				jb := jobs[(j+w*len(jobs)/goroutines)%len(jobs)]
				for i, got := range jb.gen(memo).Cases(memoCases) {
					if d := sameCase(got, jb.want[i]); d != "" {
						t.Errorf("goroutine %d, %s case %d: %s", w, jb.name, i, d)
					}
					if d, want := memo.CaseDigest(got), iogen.CaseDigest(jb.want[i]); d != want {
						t.Errorf("goroutine %d, %s case %d: memoized digest %s, CaseDigest %s", w, jb.name, i, d, want)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMemoDigestsLiteralCases: a case not drawn through a memo is hashed
// in full, so it never takes the digest a drawn case with the same
// lengths and scalars left in the memo.
func TestMemoDigestsLiteralCases(t *testing.T) {
	cand := &binding.Candidate{Spec: accel.NewFFTA(),
		Length:     binding.LengthBinding{Param: "n", Conv: binding.ConvIdentity},
		FreeParams: []string{"flag"}}
	memo := iogen.NewMemo()
	drawn := memo.Generator(memoSeed, cand, nil).Case(0)
	if d, want := memo.CaseDigest(drawn), iogen.CaseDigest(drawn); d != want {
		t.Fatalf("drawn case: memoized digest %s, CaseDigest %s", d, want)
	}
	same := iogen.Case{UserLen: drawn.UserLen, AccelLen: drawn.AccelLen,
		Scalars: drawn.Scalars, Input: append([]complex128(nil), drawn.Input...)}
	if d, want := memo.CaseDigest(same), iogen.CaseDigest(drawn); d != want {
		t.Errorf("literal copy of a drawn case: digest %s, want %s", d, want)
	}
	other := same
	other.Input = append([]complex128(nil), same.Input...)
	other.Input[len(other.Input)-1] += 1
	if d, want := memo.CaseDigest(other), iogen.CaseDigest(other); d != want {
		t.Errorf("literal case with another signal: digest %s, want %s", d, want)
	}
	if memo.CaseDigest(other) == memo.CaseDigest(drawn) {
		t.Error("a literal case with another signal took the drawn case's digest")
	}
}

// BenchmarkCases draws the 10 cases of one corpus candidate (bigmixed on
// ffta, the first candidate with a free scalar, so sizes, scalars and
// signals are all drawn): from a fresh generator, and from a generator on
// a memo that already holds them, as a program's second and third target
// find it.
func BenchmarkCases(b *testing.B) {
	cand, prof := benchCandidate(b)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchCases = iogen.New(memoSeed, cand, prof).Cases(memoCases)
		}
	})
	b.Run("memo", func(b *testing.B) {
		memo := iogen.NewMemo()
		memo.Generator(memoSeed, cand, prof).Cases(memoCases)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchCases = memo.Generator(memoSeed, cand, prof).Cases(memoCases)
		}
	})
}

var benchCases []iogen.Case

// benchCandidate returns bigmixed's first ffta candidate with a free
// scalar, and its profile.
func benchCandidate(b *testing.B) (*binding.Candidate, *analysis.Profile) {
	for _, p := range corpusPrograms(b) {
		if p.name != "bigmixed" {
			continue
		}
		for _, c := range p.cands {
			if c.Spec.Name == "ffta" && len(c.FreeParams) > 0 {
				return c, p.prof
			}
		}
	}
	b.Fatal("no bigmixed/ffta candidate with a free scalar")
	return nil, nil
}

// BenchmarkCaseDigest digests the 10 cases of the candidate BenchmarkCases
// draws: in full with CaseDigest, and through a memo that already keeps
// them, as a program's second and third target find it.
func BenchmarkCaseDigest(b *testing.B) {
	cand, prof := benchCandidate(b)
	memo := iogen.NewMemo()
	cases := memo.Generator(memoSeed, cand, prof).Cases(memoCases)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range cases {
				benchDigest = iogen.CaseDigest(c)
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		for _, c := range cases {
			memo.CaseDigest(c)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range cases {
				benchDigest = memo.CaseDigest(c)
			}
		}
	})
}

var benchDigest string
