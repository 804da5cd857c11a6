package interp

// Fault-path goldens: small programs that drive every specialised
// operator, store, condition and builtin path of the closure compiler
// through the cases the corpus goldens never reach — a punned cell whose
// dynamic type differs from the static one, an out-of-bounds index or a
// division by zero inside an expression, the fuel fault landing on every
// node of a loop, and an already-cancelled context. Each run records the
// return value's bits, the fault (kind, position and message), all ten
// Counters, the Observe stream and the output. Regenerate only with
//
//	go test ./internal/interp -run TestFusedGolden -update
//
// and only when a change to the recorded behaviour is intended.

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"facc/internal/minic"
)

var updateFusedGolden = flag.Bool("update", false, "rewrite testdata/fused_golden.txt")

const fusedGoldenPath = "testdata/fused_golden.txt"

const fusedSrc = `
struct S { int a; double b; };
struct C { double complex c; double d; };

/* A malloc block first used as struct S, then read through int* and
   double*: odd int cells hold doubles and even double cells hold ints. */
int pun_int(int n) {
    struct S *s = (struct S*)malloc(4 * sizeof(struct S));
    struct S z;
    z.a = 0;
    z.b = 0.0;
    s[0] = z;
    for (int i = 0; i < 4; i++) { s[i].a = i + 1; s[i].b = 2.5 * i + 0.75; }
    int *p = (int*)s;
    int acc = n;
    for (int i = 0; i < 8; i++) {
        acc = acc + p[i];
        acc += p[i] * 3;
        acc -= p[i] / 2;
        acc = acc ^ (i & 6) | (p[i] < 3) + (p[i] >= i) + (i != p[i]);
        if (p[i] > 2) acc++;
        int d = p[i];
        acc += d;
        p[i] = p[i] + 1;
        p[i] += 2;
        p[i]++;
        acc += -p[i] + !p[i] + ~i;
    }
    int k = 1;
    while (p[k]) { k = k + 2; if (k > 7) break; }
    long big = p[1] * 1000000;
    unsigned u = p[3] - 10;
    return acc + k + (int)(big % 1000) + (int)(u % 97);
}

/* Bitwise operators on a punned double cell fault on the general path. */
int pun_bits(int n) {
    struct S *s = (struct S*)malloc(2 * sizeof(struct S));
    struct S z;
    z.a = n;
    z.b = 2.5;
    s[0] = z;
    int *p = (int*)s;
    int acc = p[0] & 6;
    acc += p[0] << 2;
    return acc + (p[1] % 2);
}

double pun_double(int n) {
    struct S *s = (struct S*)malloc(3 * sizeof(struct S));
    struct S z;
    z.a = 7;
    z.b = 1.5;
    s[0] = z;
    s[1] = z;
    s[2] = z;
    double *q = (double*)s;
    double acc = n;
    float f = 0.5f;
    for (int i = 0; i < 6; i++) {
        acc = acc * 0.5 + q[i];
        acc += q[i] / 4.0;
        acc -= q[i] * q[i];
        f = f * q[i] + 1.0f;
        if (q[i] < 2.0) acc = acc + 1.0;
        double d = q[i];
        float g = q[i];
        acc += d + g + sqrt(q[i]) + pow(q[i], 2.0);
        q[i] = q[i] * 2.0;
        q[i] += 0.25;
        q[i] *= 3;
    }
    return acc + f;
}

double complex pun_complex(int n) {
    struct C *b = (struct C*)malloc(2 * sizeof(struct C));
    struct C z;
    z.c = 1.0 + 2.0 * I;
    z.d = 3.0;
    b[0] = z;
    b[1] = z;
    double complex *cp = (double complex*)b;
    double complex acc = n;
    for (int i = 0; i < 4; i++) {
        acc = acc * cp[i] + cp[i] / 2.0;
        acc += cp[i] - 1.0;
        acc = acc + cexp(cp[i] * 0.1) + conj(cp[i]);
        double complex w = cp[i];
        acc -= w * I;
        cp[i] = cp[i] + I;
        cp[i] *= 2.0;
        if (cp[i] != 0.0) acc = acc + creal(cp[i]) + cabs(cp[i]);
    }
    return acc;
}

/* Every operator family on values of their static types. */
long arith(int n) {
    char c = 100;
    unsigned char uc = 200;
    unsigned u = 4000000000u;
    long l = 1;
    int x = n;
    for (int i = 1; i <= 6; i++) {
        c = c + 50;
        uc += 100;
        u = u * 3 + i;
        l = l * 7 - i;
        x = (x << 2) ^ (x >> 1) | (i & 5);
        x = x % 1000 + x / 7;
        l += (long)u >> 3;
        u >>= 1;
        c *= 3;
        x -= i * i;
    }
    return c + uc + (long)u + l + x + (l < x) + (u >= 3) + (c == uc) + (c != x);
}

double floats(int n) {
    float f = 1.25f;
    double d = n;
    for (int i = 0; i < 5; i++) {
        f = f * 1.1f + 0.3f;
        f /= 1.7f;
        d = d * f - d / 3.0 + i;
        d -= f;
        if (d > f && f <= 2.0f) d = d + 0.5;
        d = d + sin(d) * cos(f) + fabs(-d) + sqrtf(f) + atan2(d, f);
    }
    return d + f;
}

double complex cplx(int n) {
    double complex z = 1.0 + 1.0 * I;
    float complex w = 0.5f;
    for (int k = 0; k < n; k++) {
        z = z * cexp(-2.0 * M_PI * I * (double)k / (double)n) + z / (2.0 + I);
        w = w * w + 0.25f * I;
        z += w;
        z -= 1.0;
        z *= 0.5;
        z /= 1.0 + I;
        double complex t = z * w;
        z = z + csqrt(t) - conj(t);
    }
    return z + creal(w) + cimag(z) * I + cabs(w) + carg(z);
}

/* An out-of-bounds index inside an expression: off the end in a
   product, a compound assignment, a store and a loop condition. */
double oob_product(int n) {
    double a[4];
    double b[4];
    for (int i = 0; i < 4; i++) { a[i] = i + 0.5; b[i] = 2.0 * i; }
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + a[i] * b[i + 1]; }
    return s;
}
double oob_compound(int n) {
    double a[4];
    double s = 1.0;
    for (int i = 0; i <= n; i++) { s += a[i]; a[i] = s; }
    return s;
}
int oob_store(int n) {
    int a[3];
    for (int i = 0; i < n; i++) { a[i] = i * 2 + 1; }
    return a[0];
}
int oob_cond(int n) {
    int a[5];
    for (int i = 0; i < 5; i++) { a[i] = i + n; }
    int k = 0;
    while (a[k] != 0) { k++; }
    return k;
}
int div_zero(int n) {
    int s = 0;
    for (int i = 3; i >= 0; i--) { s = s + n / i; }
    return s;
}
int mod_zero(int n) {
    int s = 0;
    for (int i = 2; i >= 0; i--) { s += n % i; }
    return s;
}
double complex cexp_oob(int n) {
    double complex x[2];
    x[0] = 1.0;
    x[1] = I;
    double complex s = 0.0;
    for (int j = 0; j < n; j++) { s += x[j] * cexp(-2.0 * M_PI * I * (double)j / (double)n); }
    return s;
}

/* A loop through every fused family, small enough for a full fuel sweep. */
double sweep(int n) {
    double acc = 0.5;
    double complex z = 1.0;
    int k = 0;
    for (int i = 0; i < n; i++) {
        k += i * 3 - 1;
        acc = acc * 0.5 + (double)k / 3.0;
        z = z * cexp(I * 0.25) + acc;
        if (k > 1 && i != 2) acc -= 1.0;
        double t = acc;
        acc = t + creal(z);
    }
    return acc + cimag(z);
}

/* Long enough to reach a context poll. */
int spin(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s = s + i % 7; }
    return s;
}
`

type fusedRun struct {
	name     string
	fn       string
	arg      int64
	maxSteps int64
	cancel   bool
}

// fusedRuns lists every recorded run: each program at its argument, the
// fuel sweep over sweep(3), and the cancelled-context runs.
func fusedRuns(t *testing.T, m *Machine) []fusedRun {
	runs := []fusedRun{
		{fn: "pun_int", arg: 3}, {fn: "pun_bits", arg: 5}, {fn: "pun_double", arg: 2},
		{fn: "pun_complex", arg: 1},
		{fn: "arith", arg: 9}, {fn: "floats", arg: 3}, {fn: "cplx", arg: 6},
		{fn: "oob_product", arg: 4}, {fn: "oob_compound", arg: 4}, {fn: "oob_store", arg: 5},
		{fn: "oob_cond", arg: 1}, {fn: "div_zero", arg: 12}, {fn: "mod_zero", arg: 12},
		{fn: "cexp_oob", arg: 3},
	}
	for i := range runs {
		runs[i].name = runs[i].fn
	}
	m.Reset()
	if _, err := m.CallNamed("sweep", []Value{IntValue(3)}); err != nil {
		t.Fatalf("sweep(3): %v", err)
	}
	total := m.Counters.Steps
	for s := int64(1); s <= total; s++ {
		runs = append(runs, fusedRun{name: fmt.Sprintf("sweep/fuel=%d", s), fn: "sweep", arg: 3, maxSteps: s})
	}
	for _, r := range []fusedRun{{fn: "spin", arg: 400}, {fn: "cplx", arg: 20}, {fn: "sweep", arg: 25}} {
		r.name, r.cancel = r.fn+"/cancelled", true
		runs = append(runs, r)
	}
	return runs
}

// record runs one case on a fresh machine and renders it as one line.
func (r fusedRun) record(t *testing.T, f *minic.File) string {
	m, err := NewMachine(f)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if r.maxSteps > 0 {
		m.MaxSteps = r.maxSteps
	}
	if r.cancel {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m.Ctx = ctx
	}
	h := fnv.New64a()
	nobs := 0
	m.Observe = func(name string, v Value) {
		nobs++
		fmt.Fprintf(h, "%s=%s:%s;", name, v, v.Type())
	}
	v, err := m.CallNamed(r.fn, []Value{IntValue(r.arg)})
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%d): ", r.name, r.arg)
	if err != nil {
		fmt.Fprintf(&b, "fault %s [%v]", FaultOf(err), err)
	} else {
		fmt.Fprintf(&b, "ret %s I=%#x F=%#x nil=%v", v.Type(), uint64(v.I), math.Float64bits(v.F), v.A == nil)
	}
	c := m.Counters
	fmt.Fprintf(&b, " | counters %d %d %d %d %d %d %d %d %d %d",
		c.IntOps, c.FloatOps, c.FloatDivs, c.Loads, c.Stores,
		c.Branches, c.Calls, c.MathCalls, c.Allocs, c.Steps)
	fmt.Fprintf(&b, " | observe %d %016x | out %q", nobs, h.Sum64(), m.Output())
	return b.String()
}

func TestFusedGolden(t *testing.T) {
	f, err := minic.ParseAndCheck("fused.c", fusedSrc)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, r := range fusedRuns(t, probe) {
		lines = append(lines, r.record(t, f))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateFusedGolden {
		if err := os.WriteFile(fusedGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fusedGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("%d runs, golden has %d", len(lines), len(wantLines))
	}
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			t.Errorf("run %d differs:\n got %s\nwant %s", i, lines[i], wantLines[i])
		}
	}
}
