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
		for _, workers := range []int{1, 4} {
			c, err := core.CompileProgram(prog, level)
			if err != nil {
				t.Fatal(err)
			}
			eng, args := newVerifyEngine(c, n, symex.Options{Workers: workers})
			rep, err := eng.Run("umain", args, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep.Stats.CoveredBlocks = len(eng.CoveredBlockNames())
			if got := dist.NormalizedRender(rep); got != want[level.String()] {
				t.Errorf("%s -j %d:\n%s\nwant\n%s", level, workers, got, want[level.String()])
			}
		}

		c, err := core.CompileProgram(prog, level)
		if err != nil {
			t.Fatal(err)
		}
		eng, args := newVerifyEngine(c, n, symex.Options{})
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
		rep := symex.MergeReports(eng.PartialReport(), engW.RunStates(decoded))
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
					if o.Cell(i).Obj == symex.NullObj {
						return true
					}
				}
			}
		}
	}
	return false
}
