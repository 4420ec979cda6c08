package symex_test

import (
	"os"
	"strings"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/dist"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// TestObjectLifetimes pins what a program can see of object lifetimes
// on testdata/lifetimes.c: a callee's array local called in a loop,
// pointers to returned frames' locals read after the return, and a
// recursive function that forks below frames its forks share. The
// normalized render at every level must be testdata/lifetimes.golden
// (symbex -n 3 -normalized), at one worker and at four, and after the
// states are split off, encoded, decoded into a fresh engine and
// explored there. The goldens were captured before objects had numbers;
// the -OVERIFY instruction count was re-cut when -OVERIFY stopped
// running loop restructuring.
func TestObjectLifetimes(t *testing.T) {
	src, err := os.ReadFile("testdata/lifetimes.c")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/lifetimes.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, sec := range strings.Split(string(golden), "== ")[1:] {
		level, render, _ := strings.Cut(sec, "\n")
		want[level] = render
	}
	prog := coreutils.Program{Name: "lifetimes", Src: string(src)}
	for _, level := range []pipeline.Level{pipeline.O0, pipeline.O1, pipeline.O2, pipeline.O3, pipeline.OVerify} {
		if want[level.String()] == "" {
			t.Fatalf("%s: no golden render", level)
		}
		// One compile per level: -OVERIFY inlines the recursion up to its
		// growth cap, which takes seconds. Engines only read the module.
		c, err := core.CompileProgram(prog, level)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			eng, args := newVerifyEngine(c, 3, symex.Options{Workers: workers})
			rep, err := eng.Run("umain", args, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep.Stats.CoveredBlocks = len(eng.CoveredBlockNames())
			if got := dist.NormalizedRender(rep); got != want[level.String()] {
				t.Errorf("%s -j %d:\n%s\nwant\n%s", level, workers, got, want[level.String()])
			}
		}

		eng, args := newVerifyEngine(c, 3, symex.Options{})
		states, err := eng.Split("umain", args, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := eng.EncodeStates(states)
		if err != nil {
			t.Fatal(err)
		}
		engW := symex.NewEngine(c.Mod, symex.Options{})
		decoded, err := engW.DecodeStates(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", level, err)
		}
		if err := checkDecodedPointers(decoded); err != nil {
			t.Fatalf("%s: %v", level, err)
		}
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
}
