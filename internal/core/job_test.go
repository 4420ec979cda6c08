package core_test

import (
	"strings"
	"testing"
	"time"

	"overify/internal/core"
	"overify/internal/ir"
	"overify/internal/libc"
	"overify/internal/pipeline"
)

const trivialSrc = `int umain(unsigned char *input, int len) { return 0; }`

// TestJobResolveDefaults: a job that names only its program resolves to
// the documented defaults — -OVERIFY with its own libc, umain, 4
// symbolic bytes, every check, no budgets.
func TestJobResolveDefaults(t *testing.T) {
	r, err := core.Job{Source: trivialSrc}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "<source>" || r.Entry != "umain" {
		t.Errorf("name %q entry %q, want <source> umain", r.Name, r.Entry)
	}
	if r.Config.Level != pipeline.OVerify || r.Libc != libc.Verified {
		t.Errorf("level %s libc %s, want -OVERIFY with the verified libc", r.Config.Level, r.Libc)
	}
	if r.Config.Pipeline != nil || r.Config.Slice {
		t.Errorf("default job overrides the pipeline: %+v", r.Config)
	}
	// The zero engine options are every check with no budgets.
	if want := (core.VerifyOptions{InputBytes: 4}); r.Verify != want {
		t.Errorf("engine configuration %+v, want only InputBytes: 4", r.Verify)
	}

	p, err := core.Job{Prog: "wc", Level: "-O2"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "wc" || p.Source == "" || p.Libc != libc.Uclibc {
		t.Errorf("corpus job resolved to name %q, %d source bytes, libc %s", p.Name, len(p.Source), p.Libc)
	}
}

// TestJobResolveFields: every field lands where the engine and the
// compiler read it.
func TestJobResolveFields(t *testing.T) {
	r, err := core.Job{
		Name: "t.c", Source: trivialSrc, Level: "-O3", Passes: "mem2reg,dce", Entry: "f",
		InputBytes: 7, TimeoutMS: 1500, MaxInstrs: 99, Workers: 2,
		Slice: true, Checks: "div-by-zero", Portfolio: 4,
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	divOnly, _ := ir.ParseCheckSet("div-by-zero")
	e := r.Verify.Engine
	if r.Name != "t.c" || r.Entry != "f" || r.Verify.InputBytes != 7 ||
		e.Timeout != 1500*time.Millisecond || e.MaxInstrs != 99 ||
		e.Workers != 2 || e.Checks != divOnly ||
		e.Solver.Portfolio != 4 {
		t.Errorf("engine configuration lost a field: %+v (entry %q, name %q)", r.Verify, r.Entry, r.Name)
	}
	c := r.Config
	if c.Level != pipeline.O3 || !c.Slice || c.SliceChecks != divOnly || c.SliceEntry != "f" ||
		c.Pipeline == nil || c.Pipeline.String() != "mem2reg,dce" {
		t.Errorf("pipeline configuration lost a field: %+v", c)
	}
}

// TestCompileKeyCoversSlicedEntry: a slice keeps the entry's call
// closure, so whenever a slice stage may run — -slice or an explicit
// pipeline — two entries are two modules; without one they share it.
func TestCompileKeyCoversSlicedEntry(t *testing.T) {
	for _, tc := range []struct {
		job   core.Job
		apart bool
	}{
		{core.Job{Source: trivialSrc}, false},
		{core.Job{Source: trivialSrc, Slice: true}, true},
		{core.Job{Source: trivialSrc, Passes: "mem2reg,slice"}, true},
	} {
		keys := map[string]bool{}
		for _, entry := range []string{"", "umain", "f"} {
			tc.job.Entry = entry
			r, err := tc.job.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			keys[r.CompileKey()] = true
		}
		// "" resolves to umain, so at most two keys.
		if want := map[bool]int{false: 1, true: 2}[tc.apart]; len(keys) != want {
			t.Errorf("slice %v, passes %q: %d compile keys over entries \"\", umain and f, want %d", tc.job.Slice, tc.job.Passes, len(keys), want)
		}
	}
}

// TestJobResolveRejects: malformed jobs fail in Resolve, before
// anything is compiled or dialed.
func TestJobResolveRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		job  core.Job
		want string
	}{
		{"both", core.Job{Source: trivialSrc, Prog: "wc"}, "both source and corpus program"},
		{"neither", core.Job{Level: "-O0"}, "neither source nor a corpus program"},
		{"empty source", core.Job{Name: "empty.c", Level: "-O0"}, "empty.c: empty source"},
		{"prog", core.Job{Prog: "no-such-program"}, `unknown corpus program "no-such-program"`},
		{"level", core.Job{Prog: "wc", Level: "-O9"}, "unknown optimization level"},
		{"check", core.Job{Prog: "wc", Checks: "div-by-zero,nonsense"}, "unknown check kind"},
		{"pass", core.Job{Prog: "wc", Passes: "mem2reg,nosuchpass"}, "nosuchpass"},
		{"pass syntax", core.Job{Prog: "wc", Passes: "fixpoint(dce"}, "fixpoint"},
	} {
		r, err := tc.job.Resolve()
		if err == nil {
			t.Errorf("%s: resolved to %+v, want an error", tc.name, r)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCompileKeyIgnoresLayout: the compile key covers the source's
// tokens, not its text. Comment, whitespace and blank-line edits share
// a key; renaming an identifier, changing a literal's value or spelling,
// swapping two tokens or moving an assert (its check message carries
// its position) does not. A source that does not lex still gets a key,
// its own, and still fails at its own position.
func TestCompileKeyIgnoresLayout(t *testing.T) {
	const base = "int umain(unsigned char *input, int len) {\n" +
		"\tint n = 0;\n" +
		"\tif (input[0] == 'a') n = n + 3;\n" +
		"\treturn n;\n" +
		"}\n"
	key := func(src string) string {
		t.Helper()
		r, err := core.Job{Name: "k.c", Source: src}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return r.CompileKey()
	}
	want := key(base)
	for name, src := range map[string]string{
		"line comment":  base + "// edit\n",
		"block comment": strings.Replace(base, "int n = 0;", "int n = /* zero */ 0;", 1),
		"whitespace":    strings.ReplaceAll(base, " = ", "  =\t"),
		"blank lines":   "\n\n" + strings.ReplaceAll(base, "\n", "\n\n"),
	} {
		if key(src) != want {
			t.Errorf("%s moved the compile key", name)
		}
	}
	for name, src := range map[string]string{
		"renamed identifier": strings.ReplaceAll(base, "n = n", "m = m"),
		"literal value":      strings.Replace(base, "'a'", "'b'", 1),
		"literal spelling":   strings.Replace(base, "n + 3", "n + 0x3", 1),
		"swapped tokens":     strings.Replace(base, "n + 3", "3 + n", 1),
	} {
		if key(src) == want {
			t.Errorf("%s kept the compile key", name)
		}
	}

	asserting := strings.Replace(base, "\treturn n;", "\tassert(n < 4);\n\treturn n;", 1)
	if key(asserting) == key("\n"+asserting) {
		t.Error("moving an assert to another line kept the compile key")
	}
	if key(asserting) != key(asserting+"/* edit */\n") {
		t.Error("a comment after the last assert moved the compile key")
	}

	// '@' does not lex: two such sources that differ only in layout
	// key apart, and each compile reports its own position.
	bad := strings.Replace(base, "return n;", "return n @ 1;", 1)
	for i, src := range []string{bad, "\n" + bad} {
		if key(src) == "" || key(src) == key(bad+"\n") {
			t.Errorf("unlexable source %d: key %q, or shares the key of another text", i, key(src))
		}
		r, err := core.Job{Name: "k.c", Source: src}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Compile()
		if pos := []string{"4:11", "5:11"}[i]; err == nil || !strings.Contains(err.Error(), pos) {
			t.Errorf("unlexable source %d: compile error %v, want one at %s", i, err, pos)
		}
	}
}
