package core_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
)

// compiledPinFile holds, one line per cell, what the compiler produced
// before its CFG queries moved from per-call maps to number-indexed
// tables:
//
//	ir <program> <config> <sha256 of Mod.String()> <pipeline Stats>
//	key <program> <level> <verdict key of umain>
const compiledPinFile = "testdata/compiled_ir.pin"

// compiledPinLines compiles every corpus and trap program at the five
// levels, plain and sliced, and every corpus program at the three
// levels the ledger keys, and renders one line per cell, sorted. Each
// unsliced cell is compiled a second time through core.Job, which must
// render the same line.
func compiledPinLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	cfgs := linkConfigs()
	for _, p := range linkSources(t) {
		for cname, cfg := range cfgs {
			c, err := core.CompileWithConfig(p.Name, p.Src, cfg, core.DefaultLibc(cfg.Level))
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, cname, err)
			}
			line := fmt.Sprintf("ir %s %s %s %+v", p.Name, cname, sha(c.Mod.String()), c.Result.Stats)
			if !cfg.Slice {
				if jl := jobIRLine(t, p, cfg.Level, cname); jl != line {
					t.Errorf("core.Job compile differs:\n  job:    %s\n  config: %s", jl, line)
				}
			}
			lines = append(lines, line)
		}
	}
	vo := core.VerifyOptions{InputBytes: 3}
	for _, p := range coreutils.All() {
		for _, level := range []pipeline.Level{pipeline.O0, pipeline.O3, pipeline.OVerify} {
			c, err := core.CompileProgram(p, level)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, level, err)
			}
			key, ok := c.VerdictKey("umain", vo)
			if !ok {
				t.Fatalf("%s %s: no verdict key", p.Name, level)
			}
			lines = append(lines, fmt.Sprintf("key %s %s %s", p.Name, level, key))
		}
	}
	sort.Strings(lines)
	return lines
}

// jobIRLine renders the ir line of the module a core.Job names for p at
// level: the path every front door takes.
func jobIRLine(t *testing.T, p coreutils.Program, level pipeline.Level, cname string) string {
	t.Helper()
	job := core.Job{Name: p.Name, Source: p.Src, Level: level.String()}
	if _, ok := coreutils.Get(p.Name); ok {
		job = core.Job{Prog: p.Name, Level: level.String()}
	}
	r, err := job.Resolve()
	if err != nil {
		t.Fatalf("%s %s: %v", p.Name, cname, err)
	}
	c, err := r.Compile()
	if err != nil {
		t.Fatalf("%s %s: %v", p.Name, cname, err)
	}
	return fmt.Sprintf("ir %s %s %s %+v", p.Name, cname, sha(c.Mod.String()), c.Result.Stats)
}

// TestCompiledIRPinned: the printed IR, the pipeline's Stats and the
// verdict keys equal constants captured before the compiler's CFG
// tables were rewritten. TestPipelineEquivalence compares schedules of
// the same pass code with each other, so it cannot see a pass whose
// output changed; this test can. A change that means to alter what the
// compiler emits re-cuts the file and says why.
func TestCompiledIRPinned(t *testing.T) {
	raw, err := os.ReadFile(compiledPinFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	got := compiledPinLines(t)
	wantSet := make(map[string]bool, len(want))
	for _, l := range want {
		wantSet[l] = true
	}
	gotSet := make(map[string]bool, len(got))
	for _, l := range got {
		gotSet[l] = true
		if !wantSet[l] {
			t.Errorf("not pinned: %s", l)
		}
	}
	for _, l := range want {
		if !gotSet[l] {
			t.Errorf("pinned, not produced: %s", l)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d cells, %d pinned", len(got), len(want))
	}
}
