package minic

import (
	"testing"

	"disc/internal/asm"
	"disc/internal/core"
	"disc/internal/isa"
	"disc/internal/rng"
)

// runCompiled compiles src, runs it on the machine and returns the
// final globals plus the internal-memory image.
func runCompiled(t testing.TB, src string) (map[string]uint16, []uint16) {
	t.Helper()
	prog, err := Compile(src, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	im, err := asm.Assemble(prog.Asm)
	if err != nil {
		t.Fatalf("assemble compiler output: %v\n%s", err, prog.Asm)
	}
	m := core.MustNew(core.Config{Streams: 1})
	if err := im.Load(m, nil); err != nil {
		t.Fatal(err)
	}
	m.StartStream(0, 0)
	if _, idle := m.RunUntilIdle(300000); !idle {
		t.Fatalf("compiled program did not halt\n%s", prog.Asm)
	}
	globals := map[string]uint16{}
	for name, addr := range prog.Globals {
		globals[name] = m.Internal().Read(addr)
	}
	return globals, m.Internal().Snapshot()
}

// diffTest runs src through both the compiler+machine and the
// reference interpreter and compares globals and data memory (below
// the compiler's frame area).
func diffTest(t testing.TB, src string) {
	t.Helper()
	gotG, gotMem := runCompiled(t, src)
	refMem := make([]uint16, isa.InternalSize)
	refG, err := Interpret(src, refMem, 2_000_000)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	for name, want := range refG {
		if gotG[name] != want {
			t.Fatalf("global %s = %d on the machine, %d in the reference", name, gotG[name], want)
		}
	}
	for a := 0; a < 0x280; a++ {
		if gotMem[a] != refMem[a] {
			t.Fatalf("mem[%#x] = %d on the machine, %d in the reference", a, gotMem[a], refMem[a])
		}
	}
}

func TestArithmetic(t *testing.T) {
	diffTest(t, `
var r1; var r2; var r3; var r4; var r5;
func main() {
    r1 = 2 + 3 * 4;            // precedence
    r2 = (10 - 3) * (6 / 2);
    r3 = 1000 % 7;
    r4 = 65535 + 1;            // wraparound
    r5 = 5 - 9;                // unsigned wrap
}`)
}

func TestBitOps(t *testing.T) {
	diffTest(t, `
var a; var b; var c; var d;
func main() {
    a = 0xF0F0 & 0x0FF0;
    b = 0xF000 | 0x000F;
    c = 0xAAAA ^ 0xFFFF;
    d = (1 << 10) | (0x8000 >> 15) | ~0xFFFE;
}`)
}

func TestComparisonsAndLogic(t *testing.T) {
	diffTest(t, `
var out;
func main() {
    out = (3 < 5) + (5 <= 5)*2 + (7 > 2)*4 + (2 >= 3)*8
        + (4 == 4)*16 + (4 != 4)*32 + (0xFFFF > 1)*64;
    out = out + (1 && 2)*128 + (0 || 3)*256 + (0 && 1)*512 + (!0)*1024 + (!7)*2048;
}`)
}

func TestControlFlow(t *testing.T) {
	diffTest(t, `
var evens; var odds; var brk;
func main() {
    var i;
    i = 0;
    while (i < 20) {
        if (i % 2 == 0) {
            evens = evens + i;
        } else {
            odds = odds + i;
        }
        i = i + 1;
    }
    i = 0;
    while (1) {
        i = i + 1;
        if (i == 5) { continue; }
        if (i > 8) { break; }
        brk = brk + i;
    }
}`)
}

func TestFunctionsAndShadowing(t *testing.T) {
	diffTest(t, `
var x; var result;
func double(x) { return x + x; }
func apply3(v) {
    var x;
    x = double(v);
    x = double(x);
    return double(x);
}
func main() {
    x = 5;
    result = apply3(x) + x;   // 40 + 5: global x untouched by locals
}`)
}

func TestGCD(t *testing.T) {
	diffTest(t, `
var g;
func gcd(a, b) {
    while (b != 0) {
        var t;
        t = b;
        b = a % b;
        a = t;
    }
    return a;
}
func main() { g = gcd(1071, 462); }  // 21
`)
}

func TestFibonacciIterative(t *testing.T) {
	diffTest(t, `
var f;
func fib(n) {
    var a; var b; var i;
    a = 0; b = 1; i = 0;
    while (i < n) {
        var t;
        t = a + b;
        a = b;
        b = t;
        i = i + 1;
    }
    return a;
}
func main() { f = fib(20); }  // 6765
`)
}

func TestMemAndBubbleSort(t *testing.T) {
	diffTest(t, `
var n;
func main() {
    var i; var j; var tmp;
    n = 8;
    // fill mem[0x40..0x47] with a descending pattern
    i = 0;
    while (i < n) {
        mem[0x40 + i] = 100 - i * 7;
        i = i + 1;
    }
    // bubble sort ascending
    i = 0;
    while (i < n) {
        j = 0;
        while (j + 1 < n - i) {
            if (mem[0x40 + j] > mem[0x40 + j + 1]) {
                tmp = mem[0x40 + j];
                mem[0x40 + j] = mem[0x40 + j + 1];
                mem[0x40 + j + 1] = tmp;
            }
            j = j + 1;
        }
        i = i + 1;
    }
}`)
}

func TestDivisionEdgeCases(t *testing.T) {
	diffTest(t, `
var q0; var r0; var q1; var r1;
func main() {
    q0 = 1234 / 0;    // div16 runtime: 0xFFFF
    r0 = 1234 % 0;    // remainder = dividend
    q1 = 65535 / 3;
    r1 = 65535 % 3;
}`)
}

func TestCallArgumentOrderSafety(t *testing.T) {
	// Arguments are staged on the window stack before the frame store,
	// so an argument containing a call must not clobber earlier args.
	diffTest(t, `
var out;
func bump(v) { return v + 1; }
func sum3(a, b, c) { return a + b*10 + c*100; }
func main() { out = sum3(1, bump(1), bump(bump(1))); }  // 1 + 20 + 300
`)
}

func TestVarInitializerSugar(t *testing.T) {
	diffTest(t, `
var out;
func main() {
    var a = 6;
    var b = a * 7;
    out = b;
}`)
}

func TestCompileErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no main", `var x; func f() { return 1; }`},
		{"recursion", `func f(n) { return f(n); } func main() { f(1); }`},
		{"mutual recursion", `func a() { return b(); } func b() { return a(); } func main() { a(); }`},
		{"undefined var", `func main() { x = 1; }`},
		{"undefined func", `func main() { f(); }`},
		{"arity", `func f(a) { return a; } func main() { f(1, 2); }`},
		{"dup global", `var x; var x; func main() {}`},
		{"dup param", `func f(a, a) { return a; } func main() { f(1,1); }`},
		{"main params", `func main(a) {}`},
		{"break outside", `func main() { break; }`},
		{"too deep", `var o; func main() { o = 1+(1+(1+(1+(1+(1+(1+(1+1))))))); }`},
		{"bad token", "func main() { @ }"},
		{"big number", `func main() { x = 99999; }`},
		{"unterminated", `func main() {`},
	}
	for _, c := range cases {
		if _, err := Compile(c.src, Options{}); err == nil {
			t.Errorf("%s: compiled without error", c.name)
		}
	}
}

func TestRecursionDiagnosticNamesPath(t *testing.T) {
	_, err := Compile(`func a() { return b(); } func b() { return a(); } func main() { a(); }`, Options{})
	if err == nil {
		t.Fatal("no error")
	}
	if got := err.Error(); !contains(got, "recursion") {
		t.Fatalf("diagnostic %q does not mention recursion", got)
	}
}

// TestRecursionDiagnosticDeterministic compiles a program with three
// separate call cycles many times: the search starts from functions in
// source order, so every compile must name the same cycle.
func TestRecursionDiagnosticDeterministic(t *testing.T) {
	src := `
func a() { return b(); }
func b() { return a(); }
func c() { return c(); }
func d() { return e(); }
func e() { return d(); }
func main() { a(); c(); d(); }`
	const want = "recursion not supported: a -> b -> a"
	for i := 0; i < 200; i++ {
		_, err := Compile(src, Options{})
		if err == nil {
			t.Fatal("no error")
		}
		if got := err.Error(); !contains(got, want) {
			t.Fatalf("compile %d: diagnostic %q, want one naming %q", i, got, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestRandomExpressionsDifferential is the compiler's fuzz harness:
// random expression trees evaluated by the compiled machine code must
// match the reference interpreter exactly.
func TestRandomExpressionsDifferential(t *testing.T) {
	src := rng.New(20260704)
	for trial := 0; trial < 40; trial++ {
		expr := randomExpr(src, 0)
		program := "var out;\nfunc main() { out = " + expr + "; }\n"
		diffTest(t, program)
	}
}

// randomExpr builds a random expression of bounded depth with small
// constants (so / and % stay interesting without being all-zero).
func randomExpr(src *rng.Source, depth int) string {
	if depth >= 3 || src.Bool(0.3) {
		return itoa(int(src.Uint64() % 200))
	}
	ops := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
		"==", "!=", "<", "<=", ">", ">=", "&&", "||"}
	op := ops[src.Intn(len(ops))]
	a := randomExpr(src, depth+1)
	b := randomExpr(src, depth+1)
	if op == "<<" || op == ">>" {
		b = itoa(src.Intn(16))
	}
	if src.Bool(0.2) {
		a = "~" + "(" + a + ")"
	}
	return "(" + a + " " + op + " " + b + ")"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// TestRandomLoopsDifferential fuzzes simple statement structures too.
func TestRandomLoopsDifferential(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 15; trial++ {
		bound := 3 + src.Intn(12)
		step := 1 + src.Intn(3)
		e1 := randomExpr(src, 1)
		e2 := randomExpr(src, 1)
		program := `
var acc; var i;
func main() {
    i = 0;
    while (i < ` + itoa(bound) + `) {
        if ((i & 1) == 0) { acc = acc + ` + e1 + `; }
        else { acc = acc ^ ` + e2 + `; }
        mem[0x60 + i] = acc;
        i = i + ` + itoa(step) + `;
    }
}`
		diffTest(t, program)
	}
}

func BenchmarkCompileGCD(b *testing.B) {
	src := `
var g;
func gcd(a, b) { while (b != 0) { var t; t = b; b = a % b; a = t; } return a; }
func main() { g = gcd(1071, 462); }`
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestForLoop(t *testing.T) {
	diffTest(t, `
var sum; var prod;
func main() {
    var i;
    for (i = 1; i <= 10; i = i + 1) {
        sum = sum + i;
    }
    prod = 1;
    for (i = 1; i < 6; i = i + 1) {
        if (i == 3) { continue; }     // continue must run the post step
        if (i == 5) { break; }
        prod = prod * i;
    }
}`)
}

func TestForLoopEmptyHeaders(t *testing.T) {
	diffTest(t, `
var n;
func main() {
    n = 0;
    for (;;) {
        n = n + 1;
        if (n >= 7) { break; }
    }
}`)
}

func TestArraysSieve(t *testing.T) {
	// Sieve of Eratosthenes over a local array; prime count into a
	// global — arrays, for loops and nested indexing together.
	diffTest(t, `
var primes;
func main() {
    var sieve[64];
    var i; var j;
    for (i = 2; i < 64; i = i + 1) { sieve[i] = 1; }
    for (i = 2; i < 64; i = i + 1) {
        if (sieve[i]) {
            primes = primes + 1;
            for (j = i + i; j < 64; j = j + i) { sieve[j] = 0; }
        }
    }
}`) // 18 primes below 64
}

func TestGlobalArrayHistogram(t *testing.T) {
	diffTest(t, `
var hist[8];
var checksum;
func main() {
    var i;
    for (i = 0; i < 100; i = i + 1) {
        hist[i % 8] = hist[i % 8] + 1;
    }
    for (i = 0; i < 8; i = i + 1) {
        checksum = checksum * 3 + hist[i];
    }
}`)
}

func TestArrayInFunctionFrame(t *testing.T) {
	diffTest(t, `
var out;
func reverseSum(n) {
    var buf[10];
    var i;
    for (i = 0; i < n; i = i + 1) { buf[i] = i * i; }
    var s;
    for (i = 0; i < n; i = i + 1) { s = s + buf[n - 1 - i]; }
    return s;
}
func main() { out = reverseSum(10); }
`)
}

func TestArrayErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"index scalar", `var x; func main() { x[0] = 1; }`},
		{"array without index", `var a[4]; var o; func main() { o = a; }`},
		{"array assigned whole", `var a[4]; func main() { a = 1; }`},
		{"zero size", `var a[0]; func main() {}`},
		{"array init", `func main() { var a[4] = 1; }`},
		{"frame overflow", `var big[300]; func main() { var more[50]; big[0] = more[0]; }`},
	}
	for _, c := range cases {
		if _, err := Compile(c.src, Options{}); err == nil {
			t.Errorf("%s: compiled without error", c.name)
		}
	}
}
