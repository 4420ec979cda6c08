package libc_test

import (
	"fmt"
	"testing"

	"overify/internal/frontend"
	"overify/internal/interp"
	"overify/internal/ir"
	"overify/internal/lang"
	"overify/internal/libc"
)

// machineFor builds an interpreter over one whole libc variant plus an
// optional driver source. The variant is parsed as a plain file, not as
// the archive libc.Parse returns: the contract tests call members no
// program references.
func machineFor(t *testing.T, kind libc.Kind, extra string) *interp.Machine {
	t.Helper()
	files := []*lang.File{}
	lf, err := lang.Parse(libc.Source(kind))
	if err != nil {
		t.Fatalf("parse %s: %v", kind, err)
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
	return interp.NewMachine(mod, interp.Options{})
}

// TestCtypeContract: both variants agree with Go's own character
// classification on every byte value.
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
	for _, kind := range []libc.Kind{libc.Uclibc, libc.Verified} {
		for name, want := range ref {
			m := machineFor(t, kind, "")
			for c := 0; c < 256; c++ {
				ret, err := m.Call(name, interp.IntVal(ir.I32, uint64(c)))
				if err != nil {
					t.Fatalf("%s/%s(%d): %v", kind, name, c, err)
				}
				got := ret.Bits != 0
				if got != want(c) {
					t.Errorf("%s: %s(%d) = %v, want %v", kind, name, c, got, want(c))
				}
			}
		}
	}
}

// TestCaseMappingContract: toupper/tolower agree across variants and
// with the reference for all bytes.
func TestCaseMappingContract(t *testing.T) {
	for _, kind := range []libc.Kind{libc.Uclibc, libc.Verified} {
		m := machineFor(t, kind, "")
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
				t.Errorf("%s: toupper(%d) = %d, want %d", kind, c, int32(up.Bits), wantUp)
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
				t.Errorf("%s: tolower(%d) = %d, want %d", kind, c, int32(lo.Bits), wantLo)
			}
		}
	}
}

// TestStringContract exercises the string functions on shared vectors
// and demands identical results from both variants.
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
	for _, kind := range []libc.Kind{libc.Uclibc, libc.Verified} {
		for _, tc := range calls {
			m := machineFor(t, kind, "")
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
				t.Fatalf("%s/%s(%q,%q,%d): %v", kind, tc.fn, tc.a, tc.b, tc.n, err)
			}
			got := ir.SignExtend(32, ret.Bits)
			// Sign of strcmp matters, not magnitude.
			if tc.fn == "strcmp_" || tc.fn == "strncmp_" {
				if sign(got) != sign(tc.want) {
					t.Errorf("%s: %s(%q,%q) = %d, want sign %d", kind, tc.fn, tc.a, tc.b, got, tc.want)
				}
				continue
			}
			if got != tc.want {
				t.Errorf("%s: %s(%q,%q,%d) = %d, want %d", kind, tc.fn, tc.a, tc.b, tc.n, got, tc.want)
			}
		}
	}
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

// TestMemFunctions checks memset/memcpy/memcmp through a MiniC driver.
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
	for _, kind := range []libc.Kind{libc.Uclibc, libc.Verified} {
		m := machineFor(t, kind, driver)
		ret, err := m.Call("drive")
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ret.Bits != 0 {
			t.Errorf("%s: drive() = %d, want 0", kind, ret.Bits)
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
		m := machineFor(t, kind, driver)
		ret, err := m.Call("drive")
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ret.Bits != 4 {
			t.Errorf("%s: OUTN = %d, want 4", kind, ret.Bits)
		}
		out, _ := m.GlobalData("OUT")
		got := fmt.Sprintf("%c%c%c%c", out[0], out[1], out[2], out[3])
		if got != "hi !" {
			t.Errorf("%s: OUT = %q", kind, got)
		}
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
	m := machineFor(t, libc.Verified, driver)
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
