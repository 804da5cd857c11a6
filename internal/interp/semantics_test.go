package interp

import (
	"strings"
	"testing"

	"facc/internal/minic"
)

func TestUnsignedWraparound(t *testing.T) {
	m := run(t, `
unsigned int wrap(unsigned int a, unsigned int b) { return a + b; }
unsigned int shift(unsigned int a) { return a >> 1; }
`)
	v, err := m.CallNamed("wrap", []Value{
		{T: minic.UInt, I: 4294967295},
		{T: minic.UInt, I: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 1 {
		t.Errorf("0xFFFFFFFF + 2 = %d, want 1 (uint32 wrap)", v.Int())
	}
	// Unsigned right shift must be logical, not arithmetic.
	v, err = m.CallNamed("shift", []Value{{T: minic.UInt, I: 0x80000000}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 0x40000000 {
		t.Errorf("0x80000000u >> 1 = %#x, want 0x40000000", v.Int())
	}
}

func TestSignedCharTruncation(t *testing.T) {
	m := run(t, `char narrow(int x) { return (char)x; }`)
	v, err := m.CallNamed("narrow", []Value{IntValue(200)})
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != -56 {
		t.Errorf("(char)200 = %d, want -56", v.Int())
	}
}

func TestPrintfFloatFormats(t *testing.T) {
	m := run(t, `
void f(void) {
    printf("%e|", 12345.678);
    printf("%g|", 0.00015);
    printf("%.3f|", 2.0 / 3.0);
    printf("%10.2f|", 3.14159);
    printf("%ld|", 123456789);
    printf("%x|", 255);
    printf("%u|", 7);
}`)
	if _, err := m.CallNamed("f", nil); err != nil {
		t.Fatal(err)
	}
	out := m.Output()
	for _, w := range []string{
		"1.234568e+04|", "0.00015|", "0.667|", "      3.14|", "123456789|", "ff|", "7|",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("printf output %q missing %q", out, w)
		}
	}
}

func TestGlobalsInitializedInOrder(t *testing.T) {
	m := run(t, `
int base = 10;
int derived = 0;
int get(void) { return base; }
`)
	v, err := m.CallNamed("get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 10 {
		t.Errorf("global init = %d", v.Int())
	}
}

func TestNegativeModuloMatchesC(t *testing.T) {
	m := run(t, `int f(int a, int b) { return a % b; }`)
	cases := [][3]int64{{-7, 3, -1}, {7, -3, 1}, {-7, -3, -1}}
	for _, c := range cases {
		v, err := m.CallNamed("f", []Value{IntValue(c[0]), IntValue(c[1])})
		if err != nil {
			t.Fatal(err)
		}
		if v.Int() != c[2] {
			t.Errorf("%d %% %d = %d, want %d", c[0], c[1], v.Int(), c[2])
		}
	}
}

func TestStringBuiltins(t *testing.T) {
	m := run(t, `
int f(void) {
    puts("hello");
    putchar('!');
    return 0;
}`)
	if _, err := m.CallNamed("f", nil); err != nil {
		t.Fatal(err)
	}
	if m.Output() != "hello\n!" {
		t.Errorf("output = %q", m.Output())
	}
}

func TestReallocPreservesPrefix(t *testing.T) {
	m := run(t, `
int f(void) {
    int* p = (int*)malloc(2 * sizeof(int));
    p[0] = 7;
    p[1] = 8;
    int* q = (int*)realloc((void*)p, 4 * sizeof(int));
    q[2] = 9;
    return q[0] * 100 + q[1] * 10 + q[2];
}`)
	v, err := m.CallNamed("f", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 789 {
		t.Errorf("realloc contents = %d, want 789", v.Int())
	}
}

func TestStaticLocalsPersistAcrossCalls(t *testing.T) {
	m := run(t, `
int counter(void) {
    static int calls = 0;
    calls++;
    return calls;
}
int cached_square(int x) {
    static int have = 0;
    static int key = 0;
    static int val = 0;
    if (have && key == x) {
        return val;
    }
    have = 1;
    key = x;
    val = x * x;
    return val;
}`)
	for want := int64(1); want <= 3; want++ {
		v, err := m.CallNamed("counter", nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.Int() != want {
			t.Fatalf("call %d returned %d", want, v.Int())
		}
	}
	// The memo cache must survive between calls.
	if v, _ := m.CallNamed("cached_square", []Value{IntValue(9)}); v.Int() != 81 {
		t.Fatal("first memo call")
	}
	if v, _ := m.CallNamed("cached_square", []Value{IntValue(9)}); v.Int() != 81 {
		t.Fatal("cached memo call")
	}
}

func TestStaticLocalArrayInitializedOnce(t *testing.T) {
	m := run(t, `
int next(void) {
    static int ring[3] = {10, 20, 30};
    static int idx = 0;
    int v = ring[idx];
    ring[idx] = v + 1;
    idx = (idx + 1) % 3;
    return v;
}`)
	want := []int64{10, 20, 30, 11, 21}
	for i, w := range want {
		v, err := m.CallNamed("next", nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.Int() != w {
			t.Fatalf("call %d = %d, want %d", i, v.Int(), w)
		}
	}
}

func TestNestedStructs(t *testing.T) {
	m := run(t, `
typedef struct { double re; double im; } cnum;
typedef struct { cnum value; int tag; } tagged;

double f(void) {
    tagged arr[3];
    for (int i = 0; i < 3; i++) {
        arr[i].value.re = (double)i;
        arr[i].value.im = (double)(i * 10);
        arr[i].tag = i + 100;
    }
    tagged t = arr[2];
    t.value.re = 99.0; // copy must not alias the array
    return arr[2].value.re * 1000.0 + arr[2].value.im + (double)arr[2].tag;
}`)
	v, err := m.CallNamed("f", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 2000.0+20.0+102.0 {
		t.Errorf("nested struct access = %g, want 2122", v.Float())
	}
}

func TestPointerToNestedStructField(t *testing.T) {
	m := run(t, `
typedef struct { double re; double im; } cnum;
typedef struct { cnum value; int tag; } tagged;
double f(tagged* p) {
    cnum* inner = &p->value;
    inner->im = 7.5;
    return p->value.im;
}`)
	var structType *minic.Type
	for _, td := range m.File.Typedefs {
		if td.Name == "tagged" {
			structType = td.Type
		}
	}
	arr, err := m.NewArray("p", structType, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.CallNamed("f", []Value{arr})
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 7.5 {
		t.Errorf("through-pointer nested write = %g", v.Float())
	}
}

func TestBuiltinFaultPaths(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want FaultKind
	}{
		{"memcpy-oob", `
void f(void) {
    int a[2];
    int b[8];
    memcpy(a, b, 8 * sizeof(int));
}`, FaultOutOfBounds},
		{"memcpy-misaligned", `
void f(void) {
    int a[4];
    int b[4];
    memcpy(a, b, 5);
}`, FaultBadPointerOp},
		{"memset-nonzero", `
void f(void) {
    int a[4];
    memset(a, 1, 4 * sizeof(int));
}`, FaultUnsupported},
		{"free-interior", `
void f(void) {
    int* p = (int*)malloc(4 * sizeof(int));
    free(p + 1);
}`, FaultBadPointerOp},
		{"negative-malloc", `
void f(void) {
    void* p = malloc(-8);
}`, FaultOutOfBounds},
		{"assert-fail", `
void f(void) {
    assert(1 == 2);
}`, FaultAssert},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := run(t, c.src)
			_, err := m.CallNamed("f", nil)
			if FaultOf(err) != c.want {
				t.Errorf("fault = %v (%v), want %v", FaultOf(err), err, c.want)
			}
		})
	}
}
