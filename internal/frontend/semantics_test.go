package frontend_test

import (
	"errors"
	"fmt"
	"testing"

	"overify/internal/frontend"
	"overify/internal/interp"
	"overify/internal/ir"
	"overify/internal/lang"
)

// evalFn lowers src and runs fn(args...), returning the sign-extended
// 32-bit result.
func evalFn(t *testing.T, src, fn string, args ...interp.Value) int64 {
	t.Helper()
	mod, err := frontend.Lower("t", src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	m := interp.NewMachine(mod, interp.Options{})
	ret, err := m.Call(fn, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return ir.SignExtend(32, ret.Bits)
}

func arg(v int64) interp.Value { return interp.IntVal(ir.I32, uint64(v)) }

func TestIntegerPromotions(t *testing.T) {
	// char arithmetic promotes to int: no wraparound at 8 bits.
	src := `
	int f(void) {
		char a = 100;
		char b = 100;
		return a + b;   // 200, not 200-256
	}`
	if got := evalFn(t, src, "f"); got != 200 {
		t.Errorf("char+char = %d, want 200", got)
	}
}

func TestUnsignedCharZeroExtends(t *testing.T) {
	src := `
	int f(void) {
		unsigned char c = 200;
		return (int)c;
	}`
	if got := evalFn(t, src, "f"); got != 200 {
		t.Errorf("(int)uchar(200) = %d", got)
	}
}

func TestSignedCharSignExtends(t *testing.T) {
	src := `
	int f(void) {
		char c = (char)200;   // -56 as signed char
		return (int)c;
	}`
	if got := evalFn(t, src, "f"); got != -56 {
		t.Errorf("(int)char(200) = %d, want -56", got)
	}
}

func TestSignedDivisionTruncates(t *testing.T) {
	src := `int f(int a, int b) { return a / b; }`
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -3}, {7, -2, -3}, {-7, -2, 3},
	}
	for _, c := range cases {
		if got := evalFn(t, src, "f", arg(c.a), arg(c.b)); got != c.want {
			t.Errorf("%d/%d = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	srcMod := `int f(int a, int b) { return a % b; }`
	modCases := []struct{ a, b, want int64 }{
		{7, 3, 1}, {-7, 3, -1}, {7, -3, 1}, {-7, -3, -1},
	}
	for _, c := range modCases {
		if got := evalFn(t, srcMod, "f", arg(c.a), arg(c.b)); got != c.want {
			t.Errorf("%d%%%d = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestUnsignedComparison(t *testing.T) {
	// Unsigned comparison: 0xFFFFFFFF > 1.
	src := `
	int f(void) {
		unsigned int big = 0xFFFFFFFF;
		unsigned int one = 1;
		if (big > one) { return 1; }
		return 0;
	}`
	if got := evalFn(t, src, "f"); got != 1 {
		t.Error("unsigned comparison used signed semantics")
	}
	// Mixed signed/unsigned: -1 converts to UINT_MAX.
	src2 := `
	int f(void) {
		int neg = -1;
		unsigned int one = 1;
		if (neg > (int)one) { return 2; }    // signed: -1 > 1 false
		if ((unsigned int)neg > one) { return 1; }  // unsigned: max > 1
		return 0;
	}`
	if got := evalFn(t, src2, "f"); got != 1 {
		t.Errorf("mixed comparison = %d, want 1", got)
	}
}

func TestShiftSemantics(t *testing.T) {
	src := `
	int f(void) {
		int a = -8;
		unsigned int b = 0x80000000;
		if ((a >> 1) != -4) { return 1; }       // arithmetic shift for signed
		if ((b >> 1) != 0x40000000) { return 2; } // logical for unsigned
		if ((1 << 4) != 16) { return 3; }
		return 0;
	}`
	if got := evalFn(t, src, "f"); got != 0 {
		t.Errorf("shift check #%d failed", got)
	}
}

func TestShortCircuitEffects(t *testing.T) {
	// The RHS of && must not evaluate when the LHS is false.
	src := `
	int calls;
	int bump(void) { calls = calls + 1; return 1; }
	int f(int c) {
		calls = 0;
		if (c && bump()) { }
		return calls;
	}`
	if got := evalFn(t, src, "f", arg(0)); got != 0 {
		t.Errorf("&& evaluated RHS on false LHS (calls=%d)", got)
	}
	if got := evalFn(t, src, "f", arg(1)); got != 1 {
		t.Errorf("&& skipped RHS on true LHS (calls=%d)", got)
	}
}

func TestTernaryAndCompoundAssign(t *testing.T) {
	src := `
	int f(int x) {
		int y = x > 10 ? x * 2 : x + 1;
		y += 3;
		y <<= 1;
		y ^= 5;
		return y;
	}`
	want := func(x int64) int64 {
		var y int64
		if x > 10 {
			y = x * 2
		} else {
			y = x + 1
		}
		y += 3
		y <<= 1
		y ^= 5
		return int64(int32(y))
	}
	for _, x := range []int64{0, 5, 11, 100} {
		if got := evalFn(t, src, "f", arg(x)); got != want(x) {
			t.Errorf("f(%d) = %d, want %d", x, got, want(x))
		}
	}
}

// TestCompoundAssignIsItsOperator: x op= y lowers through the operator
// lowering x op y uses, so the two print the same IR for every compound
// operator over each integer width and signedness (with y of x's type
// and of int), and for pointer += and -=. No corpus program uses a
// compound operator, so TestCompiledIRPinned does not cover them.
func TestCompoundAssignIsItsOperator(t *testing.T) {
	lower := func(src string) string {
		t.Helper()
		mod, err := frontend.Lower("t", src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return mod.String()
	}
	same := func(format, compound, plain string) {
		t.Helper()
		got, want := lower(fmt.Sprintf(format, compound)), lower(fmt.Sprintf(format, plain))
		if got != want {
			t.Errorf("%s lowers to\n%s\n%s lowers to\n%s", compound, got, plain, want)
		}
	}
	for _, typ := range []string{"int", "unsigned", "unsigned char", "long"} {
		for _, ytyp := range []string{typ, "int"} {
			format := "int f(" + typ + " x, " + ytyp + " y) { %s; return (int)x; }"
			for _, op := range []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"} {
				same(format, "x "+op+"= y", "x = x "+op+" y")
			}
		}
	}
	for _, op := range []string{"+", "-"} {
		same("int f(unsigned char *p, int n) { %s; return *p; }", "p "+op+"= n", "p = p "+op+" n")
	}
}

func TestPrePostIncrement(t *testing.T) {
	src := `
	int f(void) {
		int i = 5;
		int a = i++;  // a=5, i=6
		int b = ++i;  // b=7, i=7
		int c = i--;  // c=7, i=6
		int d = --i;  // d=5, i=5
		return a * 1000 + b * 100 + c * 10 + d;
	}`
	if got := evalFn(t, src, "f"); got != 5000+700+70+5 {
		t.Errorf("inc/dec = %d", got)
	}
}

func TestPointerArithmeticIdioms(t *testing.T) {
	src := `
	int f(void) {
		unsigned char buf[8];
		unsigned char *p = buf;
		unsigned char *q = &buf[5];
		*p = 1;
		p += 3;
		*p = 2;
		if (q - p != 2) { return 1; }
		if (!(p < q)) { return 2; }
		if (buf[0] != 1 || buf[3] != 2) { return 3; }
		p = q - 5;
		if (p != buf) { return 4; }
		return 0;
	}`
	if got := evalFn(t, src, "f"); got != 0 {
		t.Errorf("pointer check #%d failed", got)
	}
}

func TestStringLiterals(t *testing.T) {
	src := `
	int f(void) {
		unsigned char *s = (unsigned char*)"abc";
		return (int)s[0] + (int)s[1] + (int)s[2] + (int)s[3];
	}`
	if got := evalFn(t, src, "f"); got != 'a'+'b'+'c' {
		t.Errorf("string literal sum = %d", got)
	}
}

func TestGlobalInitializers(t *testing.T) {
	src := `
	const int primes[5] = {2, 3, 5, 7, 11};
	int bias = 1 + 2 * 3;
	int f(int i) { return primes[i % 5] + bias; }`
	if got := evalFn(t, src, "f", arg(3)); got != 7+7 {
		t.Errorf("got %d", got)
	}
}

func TestFrontendRejects(t *testing.T) {
	bad := []string{
		`int f(void) { return g(); }`,                     // undefined function
		`int f(void) { return x; }`,                       // undefined variable
		`int f(void) { break; }`,                          // break outside loop
		`int f(int a) { a(); return 0; }`,                 // calling a variable
		`void f(void) { return 1; }`,                      // value in void return
		`int f(int *p, long *q) { return p == q; }`,       // incompatible ptr cmp
		`int f(void) { int x = "s"; return x; }`,          // string to int
		`int g(int); int f(void) { return g(1); }`,        // declared, not defined
		`int f(char *p) { int x = 0; x += p; return x; }`, // int += pointer
		`int f(char *p) { p *= 2; return 0; }`,            // pointer *= int
		`int f(char *p) { p += p; return 0; }`,            // pointer += pointer
	}
	for _, src := range bad {
		var le *lang.Error
		if _, err := frontend.Lower("t", src); !errors.As(err, &le) {
			t.Errorf("%s: err = %v, want a positioned error", src, err)
		}
	}
}

func TestVoidFunctions(t *testing.T) {
	src := `
	int g;
	void set(int v) { g = v; }
	int f(void) { set(42); return g; }`
	if got := evalFn(t, src, "f"); got != 42 {
		t.Errorf("void call result %d", got)
	}
}

func TestRecursionSemantics(t *testing.T) {
	src := `
	int ack(int m, int n) {
		if (m == 0) { return n + 1; }
		if (n == 0) { return ack(m - 1, 1); }
		return ack(m - 1, ack(m, n - 1));
	}`
	if got := evalFn(t, src, "ack", arg(2), arg(3)); got != 9 {
		t.Errorf("ack(2,3) = %d, want 9", got)
	}
}
