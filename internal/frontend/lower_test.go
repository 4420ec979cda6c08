package frontend_test

import (
	"strings"
	"testing"

	"overify/internal/frontend"
	"overify/internal/interp"
	"overify/internal/ir"
	"overify/internal/lang"
)

// wcSrc is Listing 1 from the paper, with the libc calls defined inline.
const wcSrc = `
int isspace(int c) {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == 11 || c == 12;
}
int isalpha(int c) {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
int wc(unsigned char *str, int any) {
	int res = 0;
	int new_word = 1;
	for (unsigned char *p = str; *p; ++p) {
		if (isspace(*p) || (any && !isalpha(*p))) {
			new_word = 1;
		} else {
			if (new_word) {
				++res;
				new_word = 0;
			}
		}
	}
	return res;
}
`

func runWc(t *testing.T, input string, any int64) int64 {
	t.Helper()
	mod, err := frontend.Lower("wc", wcSrc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	m := interp.NewMachine(mod, interp.Options{})
	buf := interp.ByteObject("input", append([]byte(input), 0))
	ret, err := m.Call("wc",
		interp.PtrVal(buf, 0),
		interp.IntVal(ir.I32, uint64(any)))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return ir.SignExtend(32, ret.Bits)
}

func TestWcCountsWords(t *testing.T) {
	tests := []struct {
		in   string
		any  int64
		want int64
	}{
		{"", 0, 0},
		{"hello", 0, 1},
		{"hello world", 0, 2},
		{"  leading and   trailing  ", 0, 3},
		{"tab\tsep\nlines", 0, 3},
		{"a,b,c", 0, 1}, // commas are not spaces
		{"a,b,c", 1, 3}, // any!=0: non-alpha separates
		{"x1y", 1, 2},   // digits split words when any!=0
		{"...", 1, 0},
		{"one", 1, 1},
	}
	for _, tt := range tests {
		if got := runWc(t, tt.in, tt.any); got != tt.want {
			t.Errorf("wc(%q, %d) = %d, want %d", tt.in, tt.any, got, tt.want)
		}
	}
}

func TestLowerVerifies(t *testing.T) {
	mod, err := frontend.Lower("wc", wcSrc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if err := ir.VerifyModule(mod); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if mod.Func("wc") == nil || mod.Func("isspace") == nil {
		t.Fatal("missing functions in module")
	}
}

// funcNames lists a module's functions in module order.
func funcNames(m *ir.Module) string {
	var names []string
	for _, f := range m.Funcs {
		names = append(names, f.Name)
	}
	return strings.Join(names, " ")
}

// TestArchiveLinksOnlyTheCallClosure pins the link rule on a toy archive:
// members reached from the plain file are lowered, in archive order;
// the rest leave no function behind; globals always stay; a plain
// definition of a member's name replaces the member, also for the
// members that call it.
func TestArchiveLinksOnlyTheCallClosure(t *testing.T) {
	parse := func(src string, archive bool) *lang.File {
		f, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		f.Archive = archive
		return f
	}
	const lib = `
int G;
int unused(int x) { return leaf(x) + 1; }
int leaf(int x) { return x + G; }
int mid(int x) { return leaf(x) * 2; }
int top(int x) { return mid(x) + mid(x); }
int lonely(void);
`
	cases := []struct{ prog, want string }{
		{"int main_(int x) { return top(x); }", "leaf mid top main_"},
		{"int main_(int x) { return leaf(x); }", "leaf main_"},
		{"int main_(int x) { return x; }", "main_"},
		{"int mid(int x) { return 7; } int main_(int x) { return top(x); }", "top mid main_"},
	}
	for _, tc := range cases {
		mod, err := frontend.LowerFiles("t", parse(lib, true), parse(tc.prog, false))
		if err != nil {
			t.Fatalf("%s: %v", tc.prog, err)
		}
		if got := funcNames(mod); got != tc.want {
			t.Errorf("%s: linked %q, want %q", tc.prog, got, tc.want)
		}
		if mod.Global("G") == nil {
			t.Errorf("%s: archive global dropped", tc.prog)
		}
	}
	// The same file, not marked, is lowered in full.
	if _, err := frontend.LowerFiles("t", parse(lib, false)); err == nil || !strings.Contains(err.Error(), "lonely declared but never defined") {
		t.Errorf("plain lowering of the library: %v, want the undefined prototype reported", err)
	}
	// Program-first order links the same set.
	mod, err := frontend.LowerFiles("t", parse(cases[0].prog, false), parse(lib, true))
	if err != nil || funcNames(mod) != "main_ leaf mid top" {
		t.Errorf("program before archive: %q, %v", funcNames(mod), err)
	}
	// The override's body is the one that runs.
	mod, err = frontend.LowerFiles("t", parse(lib, true), parse(cases[3].prog, false))
	if err != nil {
		t.Fatal(err)
	}
	ret, err := interp.NewMachine(mod, interp.Options{}).Call("main_", interp.IntVal(ir.I32, 1))
	if err != nil || ret.Bits != 14 {
		t.Errorf("main_(1) with mid overridden = %d, %v; want 14", ret.Bits, err)
	}
}
