package libc_test

import (
	"math"
	"testing"

	"overify/internal/frontend"
	"overify/internal/interp"
	"overify/internal/ir"
	"overify/internal/lang"
	"overify/internal/libc"
	"overify/internal/pipeline"
)

// build is one form a contract is checked in: a library variant lowered
// as the front end emits it (-O0), or after a level's pass spec.
type build struct {
	kind  libc.Kind
	level pipeline.Level
}

func (b build) String() string { return b.kind.String() + " " + b.level.String() }

// builds holds each variant at -O0 and after the -OVERIFY pass spec,
// whose simplify turns the verified library's flag arithmetic into
// selects: a contract must hold on the code the verifier explores, not
// only on the source.
var builds = []build{
	{libc.Uclibc, pipeline.O0}, {libc.Verified, pipeline.O0},
	{libc.Uclibc, pipeline.OVerify}, {libc.Verified, pipeline.OVerify},
}

// machineFor builds an interpreter over one whole libc variant plus an
// optional driver source, optimized at the build's level. The variant is
// parsed as a plain file, not as the archive libc.Parse returns: the
// contract tests call members no program references.
func machineFor(t *testing.T, b build, extra string) *interp.Machine {
	t.Helper()
	files := []*lang.File{}
	lf, err := lang.Parse(libc.Source(b.kind))
	if err != nil {
		t.Fatalf("parse %s: %v", b.kind, err)
	}
	files = append(files, lf)
	if extra != "" {
		ef, err := lang.Parse(extra)
		if err != nil {
			t.Fatalf("parse extra: %v", err)
		}
		files = append(files, ef)
	}
	mod, err := frontend.LowerFiles("libc", files...)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if b.level != pipeline.O0 {
		if _, err := pipeline.Optimize(mod, pipeline.LevelConfig(b.level)); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
	}
	return interp.NewMachine(mod, interp.Options{})
}

// TestCtypeContract: both variants agree with Go's own character
// classification on every byte value, unoptimized and at -OVERIFY.
func TestCtypeContract(t *testing.T) {
	ref := map[string]func(c int) bool{
		"isspace": func(c int) bool {
			return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == 11 || c == 12
		},
		"isalpha": func(c int) bool {
			return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		},
		"isdigit": func(c int) bool { return c >= '0' && c <= '9' },
		"isupper": func(c int) bool { return c >= 'A' && c <= 'Z' },
		"islower": func(c int) bool { return c >= 'a' && c <= 'z' },
	}
	for _, b := range builds {
		for name, want := range ref {
			m := machineFor(t, b, "")
			for c := 0; c < 256; c++ {
				ret, err := m.Call(name, interp.IntVal(ir.I32, uint64(c)))
				if err != nil {
					t.Fatalf("%s/%s(%d): %v", b, name, c, err)
				}
				got := ret.Bits != 0
				if got != want(c) {
					t.Errorf("%s: %s(%d) = %v, want %v", b, name, c, got, want(c))
				}
			}
		}
	}
}

// TestCaseMappingContract: toupper/tolower agree across variants and
// with the reference for all bytes, unoptimized and at -OVERIFY.
func TestCaseMappingContract(t *testing.T) {
	for _, b := range builds {
		m := machineFor(t, b, "")
		for c := 0; c < 256; c++ {
			up, err := m.Call("toupper", interp.IntVal(ir.I32, uint64(c)))
			if err != nil {
				t.Fatal(err)
			}
			wantUp := c
			if c >= 'a' && c <= 'z' {
				wantUp = c - 32
			}
			if int(int32(up.Bits)) != wantUp {
				t.Errorf("%s: toupper(%d) = %d, want %d", b, c, int32(up.Bits), wantUp)
			}
			lo, err := m.Call("tolower", interp.IntVal(ir.I32, uint64(c)))
			if err != nil {
				t.Fatal(err)
			}
			wantLo := c
			if c >= 'A' && c <= 'Z' {
				wantLo = c + 32
			}
			if int(int32(lo.Bits)) != wantLo {
				t.Errorf("%s: tolower(%d) = %d, want %d", b, c, int32(lo.Bits), wantLo)
			}
		}
	}
}

// TestStringContract exercises the string functions on shared vectors
// and demands identical results from both variants, unoptimized and at
// -OVERIFY.
func TestStringContract(t *testing.T) {
	type call struct {
		fn   string
		a, b string
		n    int64
		want int64
	}
	calls := []call{
		{fn: "strlen_", a: "", want: 0},
		{fn: "strlen_", a: "hello", want: 5},
		{fn: "strcmp_", a: "abc", b: "abc", want: 0},
		{fn: "strcmp_", a: "abc", b: "abd", want: -1},
		{fn: "strcmp_", a: "abd", b: "abc", want: 1},
		{fn: "strcmp_", a: "ab", b: "abc", want: -'c'},
		{fn: "strncmp_", a: "abcX", b: "abcY", n: 3, want: 0},
		{fn: "strncmp_", a: "abcX", b: "abcY", n: 4, want: int64('X') - int64('Y')},
		{fn: "strchr_", a: "hello", n: 'l', want: 2},
		{fn: "strchr_", a: "hello", n: 'z', want: -1},
		{fn: "strchr_", a: "hello", n: 0, want: 5},
		{fn: "strrchr_", a: "hello", n: 'l', want: 3},
		{fn: "strrchr_", a: "hello", n: 'z', want: -1},
		{fn: "atoi_", a: "42", want: 42},
		{fn: "atoi_", a: "  -17x", want: -17},
		{fn: "atoi_", a: "+9", want: 9},
		{fn: "atoi_", a: "junk", want: 0},
		{fn: "abs_", n: -5, want: 5},
		{fn: "abs_", n: 5, want: 5},
	}
	for _, b := range builds {
		m := machineFor(t, b, "")
		for _, tc := range calls {
			var args []interp.Value
			if tc.fn == "abs_" {
				args = []interp.Value{interp.IntVal(ir.I32, uint64(tc.n))}
			} else {
				buf := interp.ByteObject("a", append([]byte(tc.a), 0))
				args = []interp.Value{interp.PtrVal(buf, 0)}
				switch tc.fn {
				case "strcmp_":
					b2 := interp.ByteObject("b", append([]byte(tc.b), 0))
					args = append(args, interp.PtrVal(b2, 0))
				case "strncmp_":
					b2 := interp.ByteObject("b", append([]byte(tc.b), 0))
					args = append(args, interp.PtrVal(b2, 0), interp.IntVal(ir.I32, uint64(tc.n)))
				case "strchr_", "strrchr_":
					args = append(args, interp.IntVal(ir.I32, uint64(tc.n)))
				}
			}
			ret, err := m.Call(tc.fn, args...)
			if err != nil {
				t.Fatalf("%s/%s(%q,%q,%d): %v", b, tc.fn, tc.a, tc.b, tc.n, err)
			}
			got := ir.SignExtend(32, ret.Bits)
			// Sign of strcmp matters, not magnitude.
			if tc.fn == "strcmp_" || tc.fn == "strncmp_" {
				if sign(got) != sign(tc.want) {
					t.Errorf("%s: %s(%q,%q) = %d, want sign %d", b, tc.fn, tc.a, tc.b, got, tc.want)
				}
				continue
			}
			if got != tc.want {
				t.Errorf("%s: %s(%q,%q,%d) = %d, want %d", b, tc.fn, tc.a, tc.b, tc.n, got, tc.want)
			}
		}
	}
}

// TestStringByteSweep runs every byte value through the members whose
// flag arithmetic simplify rewrites into selects — strrchr_'s hit,
// memcmp_/strncmp_'s accumulator, abs_/atoi_'s sign — and their
// branching counterparts, against Go references, in every build.
func TestStringByteSweep(t *testing.T) {
	str := func(s []byte) interp.Value {
		return interp.PtrVal(interp.ByteObject("s", append(append([]byte{}, s...), 0)), 0)
	}
	num := func(v int64) interp.Value { return interp.IntVal(ir.I32, uint64(v)) }
	for _, b := range builds {
		m := machineFor(t, b, "")
		call := func(fn string, args ...interp.Value) int64 {
			t.Helper()
			ret, err := m.Call(fn, args...)
			if err != nil {
				t.Fatalf("%s: %s: %v", b, fn, err)
			}
			return ir.SignExtend(32, ret.Bits)
		}
		ints := []int64{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32}
		for c := 0; c < 256; c++ {
			ints = append(ints, int64(c)-128)
			hay := []byte{'q', byte(c), 'r', byte(c), 's'}
			if got, want := call("strrchr_", str(hay), num(int64(c))), strrchrRef(hay, byte(c)); got != want {
				t.Errorf("%s: strrchr_(%q, %d) = %d, want %d", b, hay, c, got, want)
			}
			if got, want := call("strchr_", str(hay), num(int64(c))), strchrRef(hay, byte(c)); got != want {
				t.Errorf("%s: strchr_(%q, %d) = %d, want %d", b, hay, c, got, want)
			}
			x, y := []byte{'a', 'b', byte(c), 'z'}, []byte("abmy")
			if got, want := call("memcmp_", str(x), str(y), num(4)), cmpRef(x, y, false); sign(got) != sign(want) {
				t.Errorf("%s: memcmp_(%q, %q, 4) = %d, want sign %d", b, x, y, got, want)
			}
			if got, want := call("strncmp_", str(x), str(y), num(4)), cmpRef(x, y, true); sign(got) != sign(want) {
				t.Errorf("%s: strncmp_(%q, %q, 4) = %d, want sign %d", b, x, y, got, want)
			}
			for _, s := range [][]byte{{byte(c), '4', '2'}, {'-', byte(c), '7'}} {
				if got, want := call("atoi_", str(s)), atoiRef(s); got != want {
					t.Errorf("%s: atoi_(%q) = %d, want %d", b, s, got, want)
				}
			}
		}
		for _, v := range ints {
			want := int64(int32(v))
			if want < 0 {
				want = int64(-int32(v)) // -INT_MIN wraps to itself
			}
			if got := call("abs_", num(v)); got != want {
				t.Errorf("%s: abs_(%d) = %d, want %d", b, v, got, want)
			}
		}
	}
}

// strrchrRef is the index of the last c before s's first NUL, or -1.
func strrchrRef(s []byte, c byte) int64 {
	last := int64(-1)
	for i := 0; i < len(s) && s[i] != 0; i++ {
		if s[i] == c {
			last = int64(i)
		}
	}
	return last
}

// strchrRef is the index of the first c in s up to and including its
// first NUL, or -1.
func strchrRef(s []byte, c byte) int64 {
	for i, x := range append(s, 0) {
		if x == c {
			return int64(i)
		}
		if x == 0 {
			return -1
		}
	}
	return -1
}

// cmpRef is memcmp over len(a) bytes, or strncmp when stopAtNUL.
func cmpRef(a, b []byte, stopAtNUL bool) int64 {
	for i := range a {
		if a[i] != b[i] {
			return int64(a[i]) - int64(b[i])
		}
		if stopAtNUL && a[i] == 0 {
			return 0
		}
	}
	return 0
}

// atoiRef is atoi in 32-bit arithmetic: spaces, one sign, digits.
func atoiRef(s []byte) int64 {
	i := 0
	for i < len(s) && (s[i] == ' ' || (s[i] >= 9 && s[i] <= 13)) {
		i++
	}
	neg := false
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		neg = s[i] == '-'
		i++
	}
	var v int32
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		v = v*10 + int32(s[i]-'0')
	}
	if neg {
		v = -v
	}
	return int64(v)
}

func sign(v int64) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

// TestMemFunctions checks memset/memcpy/memcmp through a MiniC driver,
// unoptimized and at -OVERIFY.
func TestMemFunctions(t *testing.T) {
	driver := `
	int drive(void) {
		unsigned char a[8];
		unsigned char b[8];
		memset_(a, 7, 8);
		if (a[0] != 7 || a[7] != 7) { return 1; }
		memcpy_(b, a, 8);
		if (memcmp_(a, b, 8) != 0) { return 2; }
		b[3] = 9;
		if (memcmp_(a, b, 8) == 0) { return 3; }
		if (memcmp_(a, b, 3) != 0) { return 4; }
		return 0;
	}`
	for _, b := range builds {
		m := machineFor(t, b, driver)
		ret, err := m.Call("drive")
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if ret.Bits != 0 {
			t.Errorf("%s: drive() = %d, want 0", b, ret.Bits)
		}
	}
}

// TestOutputSink checks the putch/putstr bounded sink.
func TestOutputSink(t *testing.T) {
	driver := `
	int drive(void) {
		putstr((unsigned char*)"hi ");
		putch('!');
		return OUTN;
	}`
	for _, kind := range []libc.Kind{libc.Uclibc, libc.Verified} {
		m := machineFor(t, build{kind, pipeline.O0}, driver)
		ret, err := m.Call("drive")
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ret.Bits != 4 {
			t.Errorf("%s: OUTN = %d, want 4", kind, ret.Bits)
		}
		if got := string(libc.ReadOut(m.GlobalData)); got != "hi !" {
			t.Errorf("%s: OUT = %q", kind, got)
		}
	}
}

// TestReadOutClamps: ReadOut reads OUTN as a signed 32-bit count and
// clamps it to the sink, and reads nothing from a module without one.
func TestReadOutClamps(t *testing.T) {
	for _, c := range []struct {
		outn uint64
		want string
	}{{2, "ab"}, {0, ""}, {9, "abc"}, {0xffffffff, ""}} {
		globals := map[string][]uint64{"OUT": {'a', 'b', 'c'}, "OUTN": {c.outn}}
		got := libc.ReadOut(func(name string) ([]uint64, bool) { v, ok := globals[name]; return v, ok })
		if string(got) != c.want {
			t.Errorf("OUTN=%#x: got %q, want %q", c.outn, got, c.want)
		}
	}
	if got := libc.ReadOut(func(string) ([]uint64, bool) { return nil, false }); got != nil {
		t.Errorf("no sink: got %q, want nil", got)
	}
}

// TestVerifiedPreconditions: the verified libc's asserts turn misuse
// into traps instead of silent misbehavior.
func TestVerifiedPreconditions(t *testing.T) {
	driver := `
	int drive(void) {
		unsigned char a[4];
		memset_(a, 1, -3);
		return 0;
	}`
	m := machineFor(t, build{libc.Verified, pipeline.O0}, driver)
	if _, err := m.Call("drive"); err == nil {
		t.Error("memset_ with negative n must trap in the verified libc")
	}
}

func TestFunctionNamesExist(t *testing.T) {
	for _, kind := range []libc.Kind{libc.Uclibc, libc.Verified} {
		lf, err := lang.Parse(libc.Source(kind))
		if err != nil {
			t.Fatal(err)
		}
		mod, err := frontend.LowerFiles("t", lf)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range libc.FunctionNames() {
			if mod.Func(name) == nil {
				t.Errorf("%s: missing %s", kind, name)
			}
		}
	}
}

// TestParseIsOneSharedArchive: Parse hands every caller the same AST,
// marked as an archive, so nothing is linked until a program asks.
func TestParseIsOneSharedArchive(t *testing.T) {
	for _, kind := range []libc.Kind{libc.Uclibc, libc.Verified} {
		a, err := libc.Parse(kind)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := libc.Parse(kind)
		if a != b || !a.Archive {
			t.Fatalf("%s: Parse returned %p then %p, Archive=%v; want one shared archive", kind, a, b, a.Archive)
		}
		mod, err := frontend.LowerFiles("t", a)
		if err != nil {
			t.Fatal(err)
		}
		if len(mod.Funcs) != 0 {
			t.Errorf("%s: an archive with no program linked %d functions", kind, len(mod.Funcs))
		}
		if mod.Global("OUT") == nil {
			t.Errorf("%s: archive globals must be kept", kind)
		}
	}
}
