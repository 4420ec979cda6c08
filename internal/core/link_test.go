package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/frontend"
	"overify/internal/ir"
	"overify/internal/lang"
	"overify/internal/libc"
	"overify/internal/pipeline"
)

// linkSources is every program the ledger compiles: the corpus plus the
// benchmark's trap programs.
func linkSources(t *testing.T) []coreutils.Program {
	t.Helper()
	progs := coreutils.All()
	files, err := filepath.Glob("../../benchmark/programs/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("benchmark programs: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, coreutils.Program{Name: filepath.Base(f), Src: string(src)})
	}
	return progs
}

// linkConfigs is the five levels, each also with the slicing stages on.
func linkConfigs() map[string]pipeline.Config {
	cfgs := map[string]pipeline.Config{}
	for _, level := range allLevels {
		cfg := pipeline.LevelConfig(level)
		cfgs[level.String()] = cfg
		cfg.Slice = true
		cfgs[level.String()+"+slice"] = cfg
	}
	return cfgs
}

// compilePlain compiles src the way core does, except that libc goes in
// as a plain file: every member is lowered and optimized. It returns the
// compile and the call closure of the program's own functions, taken on
// the module before any pass runs.
func compilePlain(t *testing.T, p coreutils.Program, cfg pipeline.Config, lk libc.Kind, desc string) (*core.Compiled, map[string]bool) {
	t.Helper()
	progFile, err := lang.Parse(p.Src)
	if err != nil {
		t.Fatal(err)
	}
	libFile, err := lang.Parse(libc.Source(lk))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := frontend.LowerFiles(p.Name, libFile, progFile)
	if err != nil {
		t.Fatal(err)
	}
	closure := map[string]bool{}
	var visit func(f *ir.Function)
	visit = func(f *ir.Function) {
		if closure[f.Name] {
			return
		}
		closure[f.Name] = true
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Callee != nil {
					visit(in.Callee)
				}
			}
		}
	}
	for _, fn := range progFile.Funcs {
		visit(mod.Func(fn.Name))
	}
	res, err := pipeline.Optimize(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Compiled{Name: p.Name, Mod: mod, Level: cfg.Level, Libc: lk, Result: res, PipelineDesc: desc}, closure
}

// TestArchiveLinkDifferential: linking libc as an archive must be
// invisible to everything downstream of the compiler. For every program
// and level, the archive-linked module holds exactly the call closure of
// the program's functions, in the order the whole-libc module has them,
// every kept function is the same IR text after the full pipeline, and
// the verdict key is the same.
//
// The slicer is the one stage that reads the whole module: a member's
// return value stays relevant while any caller uses it, including
// callers (atoi_ -> isdigit) the slice then deletes as unreachable. With
// those never linked the slice can only cut more, so for the sliced
// configurations the claim is "no function is larger", not "same text".
func TestArchiveLinkDifferential(t *testing.T) {
	vo := core.VerifyOptions{InputBytes: 3}
	for _, p := range linkSources(t) {
		for cname, cfg := range linkConfigs() {
			lk := core.DefaultLibc(cfg.Level)
			id := p.Name + " " + cname
			linked, err := core.CompileWithConfig(p.Name, p.Src, cfg, lk)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			plain, closure := compilePlain(t, p, cfg, lk, linked.PipelineDesc)

			var want []string
			for _, f := range plain.Mod.Funcs {
				if closure[f.Name] {
					want = append(want, f.Name)
				}
			}
			var got []string
			for _, f := range linked.Mod.Funcs {
				got = append(got, f.Name)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: linked functions %v, want the program's call closure %v", id, got, want)
				continue
			}
			if len(got) == len(plain.Mod.Funcs) && !cfg.Slice {
				t.Errorf("%s: nothing was left out of %d functions", id, len(got))
			}
			for _, f := range linked.Mod.Funcs {
				pf := plain.Mod.Func(f.Name)
				switch {
				case pf == nil:
					t.Errorf("%s: %s is missing from the whole-libc module", id, f.Name)
				case cfg.Slice && f.NumInstrs() > pf.NumInstrs():
					t.Errorf("%s: %s has %d instructions under archive link, %d with whole libc", id, f.Name, f.NumInstrs(), pf.NumInstrs())
				case !cfg.Slice && f.String() != pf.String():
					t.Errorf("%s: %s differs between archive and whole-libc compile\n--- archive\n%s\n--- whole\n%s", id, f.Name, f, pf)
				}
			}
			if cfg.Slice {
				continue
			}
			lkey, lok := linked.VerdictKey("umain", vo)
			pkey, pok := plain.VerdictKey("umain", vo)
			if !lok || !pok || lkey != pkey {
				t.Errorf("%s: verdict key %q (%v) under archive link, %q (%v) with whole libc", id, lkey, lok, pkey, pok)
			}
		}
	}
}

// overrideSrc defines isspace itself. Only 32 is a space to it, so the
// division is unreachable; to libc's isspace 9 is a space too.
const overrideSrc = `
int isspace(int c) { return c == 32; }
int umain(unsigned char *input, int len) {
	int z = 0;
	if (isspace(9)) { return 10 / z; }
	return atoi_(input);
}
`

// TestProgramDefinitionWinsOverLibc: a program's own definition of a libc
// member's name satisfies the symbol — for the program's calls and for
// the members that call it (atoi_ here) — and libc's body is not linked.
func TestProgramDefinitionWinsOverLibc(t *testing.T) {
	for _, level := range allLevels {
		c, err := core.CompileSource("override", overrideSrc, level, core.DefaultLibc(level))
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		rep, err := c.Verify("umain", core.VerifyOptions{InputBytes: 2})
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		if len(rep.Bugs) != 0 {
			t.Errorf("%s: %d bugs in a program whose division is unreachable: %v", level, len(rep.Bugs), rep.Bugs[0].Msg)
		}
		// " 7" parses as 7 only if atoi_ skips the blank through the
		// program's isspace.
		rr, err := c.Run("umain", []byte(" 7"))
		if err != nil || rr.Exit != 7 {
			t.Errorf("%s: umain(\" 7\") = %v, %v; want 7", level, rr, err)
		}
	}
}

func TestLinkErrors(t *testing.T) {
	compile := func(src string) error {
		_, err := core.CompileSource("t", src, pipeline.O0, libc.Uclibc)
		return err
	}
	main := "int umain(unsigned char *input, int len) { return f(1); }\n"
	cases := []struct{ name, src, want string }{
		{"two bodies for one name", "int f(int a) { return a; }\nint f(int a) { return a + 1; }\n" + main,
			"2:5: duplicate definition of f (first defined at 1:5)"},
		{"override with another signature", "int f(int a) { return a; }\nint isspace(unsigned char *s) { return 0; }\n" + main,
			"conflicting declarations of isspace"},
		// Unreferenced members are still declarations the program must agree with.
		{"prototype against an unlinked member", "int f(int a) { return a; }\nvoid abs_(int v);\n" + main,
			"conflicting declarations of abs_"},
	}
	for _, tc := range cases {
		err := compile(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// A prototype is a reference: the member is linked for it.
	if err := compile("int f(int a) { return a; }\nint abs_(int v);\n" + main); err != nil {
		t.Errorf("prototype of a libc member: %v", err)
	}
}

// TestUnreferencedMemberIsNotAnEntry: a member the program never
// references is not in the module, so naming it as the entry fails the
// way any unknown function does.
func TestUnreferencedMemberIsNotAnEntry(t *testing.T) {
	p, _ := coreutils.Get("wc")
	c, err := core.CompileSource(p.Name, p.Src, pipeline.O0, libc.Uclibc)
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range []string{"strrchr_", "no_such_function"} {
		_, err := c.Verify(entry, core.VerifyOptions{InputBytes: 2})
		want := fmt.Sprintf("no function %q", entry)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("entry %s: error %v, want %q", entry, err, want)
		}
	}
}

// TestSharedLibcASTConcurrentCompiles: every compile in the process
// lowers from the one memoized libc AST per variant. Goroutines compiling
// different programs at different levels at once must get the IR a
// serial run gets (and, under -race, must not write to the shared AST).
func TestSharedLibcASTConcurrentCompiles(t *testing.T) {
	type cell struct {
		p     coreutils.Program
		level pipeline.Level
	}
	var cells []cell
	for _, p := range corpus(t) {
		for _, level := range allLevels {
			cells = append(cells, cell{p, level})
		}
	}
	compile := func(c cell) string {
		out, err := core.CompileProgram(c.p, c.level)
		if err != nil {
			return "error: " + err.Error()
		}
		return out.Mod.String()
	}
	serial := make([]string, len(cells))
	for i, c := range cells {
		serial[i] = compile(c)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at its own offset, so at any moment
			// different programs and levels are in flight.
			for k := range cells {
				i := (k + g*len(cells)/goroutines) % len(cells)
				if got := compile(cells[i]); got != serial[i] {
					t.Errorf("%s %s: concurrent compile differs from the serial one", cells[i].p.Name, cells[i].level)
				}
			}
		}(g)
	}
	wg.Wait()
}
