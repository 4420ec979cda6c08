package symex_test

import (
	"os"
	"strings"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/dist"
	"overify/internal/ir"
	"overify/internal/pipeline"
	"overify/internal/solver"
	"overify/internal/symex"
)

// TestNullPointerSemantics pins what null means to the engine on
// testdata/nullptr.c: == and != against null and non-null pointers,
// the difference and order of two nulls, pointer selects over two
// objects (which fork) and over null and an object, and a load, a store
// and a GEP through null. The normalized render at every level must be
// testdata/nullptr.golden (symbex -n 3 -normalized), at one worker and
// at four, and after the states are split off, encoded, decoded into a
// fresh engine and explored there — with null pointer cells inside a
// pointer-holding object on the wire.
func TestNullPointerSemantics(t *testing.T) {
	src, err := os.ReadFile("testdata/nullptr.c")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/nullptr.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, sec := range strings.Split(string(golden), "== ")[1:] {
		level, render, _ := strings.Cut(sec, "\n")
		want[level] = render
	}
	prog := coreutils.Program{Name: "nullptr", Src: string(src)}
	const n = 3
	nullCells := false
	for _, level := range []pipeline.Level{pipeline.O0, pipeline.O1, pipeline.O2, pipeline.O3, pipeline.OVerify} {
		if want[level.String()] == "" {
			t.Fatalf("%s: no golden render", level)
		}
		c, err := core.CompileProgram(prog, level)
		if err != nil {
			t.Fatal(err)
		}
		eng, args := newVerifyEngine(c, n, symex.Options{})
		rep, err := eng.Run("umain", args, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep.Stats.CoveredBlocks = len(eng.CoveredBlockNames())
		if got := dist.NormalizedRender(rep); got != want[level.String()] {
			t.Errorf("%s:\n%s\nwant\n%s", level, got, want[level.String()])
		}

		eng, args = newVerifyEngine(c, n, symex.Options{})
		states, err := eng.Split("umain", args, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := eng.EncodeStates(states)
		if err != nil {
			t.Fatal(err)
		}
		cW, err := core.CompileProgram(prog, level)
		if err != nil {
			t.Fatal(err)
		}
		engW := symex.NewEngine(cW.Mod, symex.Options{})
		decoded, err := engW.DecodeStates(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", level, err)
		}
		if err := checkDecodedPointers(decoded); err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		if holdsNullCell(states) != holdsNullCell(decoded) {
			t.Errorf("%s: null cells before the wire %v, after %v", level, holdsNullCell(states), holdsNullCell(decoded))
		}
		nullCells = nullCells || holdsNullCell(decoded)
		rep = symex.MergeReports(eng.PartialReport(), engW.RunStates(decoded))
		covered := make(map[string]bool)
		for _, names := range [][]string{eng.CoveredBlockNames(), engW.CoveredBlockNames()} {
			for _, name := range names {
				covered[name] = true
			}
		}
		rep.Stats.CoveredBlocks = len(covered)
		if got := dist.NormalizedRender(rep); got != want[level.String()] {
			t.Errorf("%s through the codec (%d states):\n%s\nwant\n%s", level, len(states), got, want[level.String()])
		}
	}
	if !nullCells {
		t.Errorf("no level put a null pointer cell on the wire")
	}
}

// holdsNullCell reports whether some register of some state points at
// a pointer-holding object with a null cell.
func holdsNullCell(states []*symex.State) bool {
	for _, st := range states {
		for _, f := range st.Frames {
			for _, v := range f.Regs {
				o := v.Obj
				if o == nil || o == symex.NullObj {
					continue
				}
				if _, ptrs := o.Elem.(ir.PtrType); !ptrs {
					continue
				}
				for i := int64(0); i < o.Count; i++ {
					if st.Cell(o, i).Obj == symex.NullObj {
						return true
					}
				}
			}
		}
	}
	return false
}

// undecidedHash leaves the condition h == K undecided on both sides
// under a small solver budget: h is FNV-1a over the four input bytes.
const undecidedHash = `int A[4];
int B[4];
int *pick(int c) { return c ? A : B; }
int umain(unsigned char *input, int len) {
	int h = 0 - 2128831035;
	int i = 0;
	while (i < 4) {
		h = (h ^ (int)input[i]) * 16777619;
		i = i + 1;
	}
`

// TestUndecidedSelectFollowsBranchRule: a pointer select between two
// objects and a conditional branch decide their sides by one rule. At
// -OVERIFY the first program stores through select(h == K, A, B) and the
// second branches on h == K to store into A or B. Under MaxWork 100 the
// solver decides neither side of the condition, so each site follows the
// side a model of the path condition takes: one path, no fork, the two
// undecided queries in Failures, and an inconclusive verdict. A select
// that forked both undecided sides would count two paths.
func TestUndecidedSelectFollowsBranchRule(t *testing.T) {
	for _, tc := range []struct{ name, op, body string }{
		{"select", "select i1", "\tint *s = pick(h == 0 - 835421763);\n\t*s = 1;\n\treturn A[0];\n}\n"},
		{"branch", "br i1", "\tif (h == 0 - 835421763) { A[0] = 1; } else { B[0] = 1; }\n\treturn A[0];\n}\n"},
	} {
		c, err := core.CompileProgram(coreutils.Program{Name: tc.name, Src: undecidedHash + tc.body}, pipeline.OVerify)
		if err != nil {
			t.Fatal(err)
		}
		if ir := c.Mod.String(); !strings.Contains(ir, tc.op) {
			t.Fatalf("%s: no %q in the -OVERIFY module:\n%s", tc.name, tc.op, ir)
		}
		eng, args := newVerifyEngine(c, 4, symex.Options{Solver: solver.Options{MaxWork: 100}})
		rep, err := eng.Run("umain", args, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := rep.Stats
		if s.TotalPaths() != 1 || s.Forks != 0 || s.SolverStats.Failures != 2 || len(rep.Bugs) != 0 {
			t.Errorf("%s: %d paths, %d forks, %d undecided queries, bugs %v; want 1 path, no fork, 2 undecided, no bugs",
				tc.name, s.TotalPaths(), s.Forks, s.SolverStats.Failures, rep.Bugs)
		}
		if v, _ := rep.Verdict(); v != symex.Inconclusive {
			t.Errorf("%s: verdict %s, want inconclusive", tc.name, v)
		}
	}
}
