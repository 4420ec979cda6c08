package symex_test

import (
	"fmt"
	"sync"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// The worker-conformance suite is the subsystem's trust anchor: the
// worker count decides only which worker runs which state, so on an
// exhaustive run every worker count must produce byte-identical sorted
// bug reports and identical path/instruction/coverage verdicts. A
// frontier that loses, duplicates or re-executes a state shows up here
// as a verdict drift.

// conformanceCorpus is the program set the suite sweeps: the full
// corpus normally, a cheap but structurally diverse subset (loops,
// flags, two buffers, symbolic indexing) under -short.
func conformanceCorpus(t *testing.T) []coreutils.Program {
	t.Helper()
	if !testing.Short() {
		return coreutils.All()
	}
	var programs []coreutils.Program
	for _, name := range []string{"echo", "cat", "wc", "tr", "grep-v", "rev", "uniq", "seq"} {
		p, ok := coreutils.Get(name)
		if !ok {
			t.Fatalf("no corpus program %q", name)
		}
		programs = append(programs, p)
	}
	return programs
}

// exploreEngine runs umain of a compiled module on an n-byte input with
// the given worker count and returns the report and the engine, whose
// covered-block names the caller compares.
func exploreEngine(t *testing.T, c *core.Compiled, n, workers int) (*symex.Report, *symex.Engine) {
	t.Helper()
	eng := symex.NewEngine(c.Mod, symex.Options{Workers: workers})
	rep, err := eng.Run("umain", eng.InputArgs(n), nil)
	if err != nil {
		t.Fatalf("%s: verify: %v", c.Name, err)
	}
	return rep, eng
}

// TestStrategyConformance: workers∈{1,4} must match the workers=1
// baseline exactly — sorted bug reports (kind, message, location), path
// counts, instruction count, solver verdict counters and the set of
// covered blocks, by name. The subtest is named for the exploration
// order, dfs, the only one the engine has.
func TestStrategyConformance(t *testing.T) {
	t.Run("dfs", func(t *testing.T) {
		for _, p := range conformanceCorpus(t) {
			c, err := core.CompileProgram(p, pipeline.OVerify)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			base, baseEng := exploreEngine(t, c, 3, 1)
			baseCovered := fmt.Sprint(baseEng.CoveredBlockNames())
			for _, workers := range []int{1, 4} {
				rep, eng := exploreEngine(t, c, 3, workers)
				tag := fmt.Sprintf("%s w=%d", p.Name, workers)
				if rep.Stats.Paths != base.Stats.Paths {
					t.Errorf("%s: paths %d != baseline %d", tag, rep.Stats.Paths, base.Stats.Paths)
				}
				if rep.Stats.ErrorPaths != base.Stats.ErrorPaths {
					t.Errorf("%s: error paths %d != baseline %d", tag, rep.Stats.ErrorPaths, base.Stats.ErrorPaths)
				}
				if rep.Stats.Instrs != base.Stats.Instrs {
					t.Errorf("%s: instrs %d != baseline %d", tag, rep.Stats.Instrs, base.Stats.Instrs)
				}
				if rep.Stats.CoveredBlocks != base.Stats.CoveredBlocks {
					t.Errorf("%s: covered blocks %d != baseline %d", tag, rep.Stats.CoveredBlocks, base.Stats.CoveredBlocks)
				}
				if names := eng.CoveredBlockNames(); fmt.Sprint(names) != baseCovered || len(names) != rep.Stats.CoveredBlocks {
					t.Errorf("%s: covered blocks %v (count %d) != baseline %s", tag, names, rep.Stats.CoveredBlocks, baseCovered)
				}
				// The solver's verdict surface is schedule-invariant on an
				// exhaustive run: the same branches are queried and decide
				// the same way no matter the order, so the per-query
				// counters must match exactly. (Cache and reuse hit
				// counters legitimately vary per schedule.)
				bs, rs := base.Stats.SolverStats, rep.Stats.SolverStats
				if rs.Queries != bs.Queries || rs.Sat != bs.Sat || rs.Unsat != bs.Unsat || rs.Failures != bs.Failures {
					t.Errorf("%s: solver verdicts q=%d/sat=%d/unsat=%d/fail=%d != baseline q=%d/sat=%d/unsat=%d/fail=%d",
						tag, rs.Queries, rs.Sat, rs.Unsat, rs.Failures, bs.Queries, bs.Sat, bs.Unsat, bs.Failures)
				}
				if bk, bb := bugKeys(rep), bugKeys(base); fmt.Sprint(bk) != fmt.Sprint(bb) {
					t.Errorf("%s: bug reports %v != baseline %v", tag, bk, bb)
				}
			}
		}
	})
}

// TestStrategyConformanceSeededBugs: the seeded-defect programs must
// yield their bug at 1 and 4 workers, with the same sorted bug reports
// at both counts and a reproducing input on every report.
func TestStrategyConformanceSeededBugs(t *testing.T) {
	for _, bp := range buggyPrograms {
		n := bp.n
		if n == 0 {
			n = 3
		}
		c, err := core.CompileSource(bp.name, bp.src, pipeline.OVerify, core.DefaultLibc(pipeline.OVerify))
		if err != nil {
			t.Fatal(err)
		}
		verify := func(workers int) *symex.Report {
			opts := core.VerifyOptions{InputBytes: n}
			opts.Engine.Workers = workers
			rep, err := c.Verify("umain", opts)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		base := verify(1)
		for _, workers := range []int{1, 4} {
			rep := verify(workers)
			tag := fmt.Sprintf("%s w=%d", bp.name, workers)
			found := false
			for _, b := range rep.Bugs {
				if b.Input == nil {
					t.Errorf("%s: bug %q has no reproducing input", tag, b.Msg)
				}
				if containsSub(b.Kind.String(), bp.kind) || containsSub(b.Msg, bp.kind) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: seeded %q bug not found (bugs: %v)", tag, bp.kind, rep.Bugs)
			}
			if bk, bb := bugKeys(rep), bugKeys(base); fmt.Sprint(bk) != fmt.Sprint(bb) {
				t.Errorf("%s: bug reports %v != baseline %v", tag, bk, bb)
			}
		}
	}
}

// TestConcurrentEnginesShareModule: coverage is per engine, not on the
// shared IR — two engines running one module at the same time (as the
// daemon runs concurrent jobs over one cached module) each report the
// serial run's covered blocks, not the union of both runs' counts.
func TestConcurrentEnginesShareModule(t *testing.T) {
	p, ok := coreutils.Get("wc")
	if !ok {
		t.Fatal("no corpus program wc")
	}
	c, err := core.CompileProgram(p, pipeline.O0)
	if err != nil {
		t.Fatal(err)
	}
	serial, serialEng := exploreEngine(t, c, 3, 1)
	want := fmt.Sprint(serialEng.CoveredBlockNames())
	var wg sync.WaitGroup
	reps := make([]*symex.Report, 2)
	names := make([]string, 2)
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := symex.NewEngine(c.Mod, symex.Options{Workers: 2})
			rep, err := eng.Run("umain", eng.InputArgs(3), nil)
			if err != nil {
				t.Error(err)
				return
			}
			reps[i], names[i] = rep, fmt.Sprint(eng.CoveredBlockNames())
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		if rep.Stats.CoveredBlocks != serial.Stats.CoveredBlocks || names[i] != want {
			t.Errorf("engine %d: covered %d blocks %s, want the serial %d %s",
				i, rep.Stats.CoveredBlocks, names[i], serial.Stats.CoveredBlocks, want)
		}
	}
}

// TestSolverConformanceAcrossLevels: the solver must be
// verdict-invariant at every optimization level, not just -OVERIFY:
// per (program, level), workers=4 must reproduce the serial baseline's
// paths, instructions, coverage, bug reports and solver verdict
// counters exactly. It sweeps the structurally diverse corpus subset
// (full-corpus × all-level equivalence costs ~15 minutes serial and is
// checked out-of-band; full corpus at -OVERIFY is TestStrategyConformance).
func TestSolverConformanceAcrossLevels(t *testing.T) {
	var programs []coreutils.Program
	for _, name := range []string{"echo", "cat", "wc", "tr", "grep-v", "rev", "uniq", "seq"} {
		p, ok := coreutils.Get(name)
		if !ok {
			t.Fatalf("no corpus program %q", name)
		}
		programs = append(programs, p)
	}
	levels := []pipeline.Level{pipeline.O0, pipeline.O1, pipeline.O2, pipeline.O3, pipeline.OVerify}
	if testing.Short() {
		levels = []pipeline.Level{pipeline.O0, pipeline.O2, pipeline.OVerify}
	}
	for _, level := range levels {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			for _, p := range programs {
				base := verifyProg(t, p, level, 3, 1)
				rep := verifyProg(t, p, level, 3, 4)
				tag := fmt.Sprintf("%s %s", p.Name, level)
				if rep.Stats.Paths != base.Stats.Paths || rep.Stats.ErrorPaths != base.Stats.ErrorPaths {
					t.Errorf("%s: paths %d/%d != baseline %d/%d", tag,
						rep.Stats.Paths, rep.Stats.ErrorPaths, base.Stats.Paths, base.Stats.ErrorPaths)
				}
				if rep.Stats.Instrs != base.Stats.Instrs {
					t.Errorf("%s: instrs %d != baseline %d", tag, rep.Stats.Instrs, base.Stats.Instrs)
				}
				if rep.Stats.CoveredBlocks != base.Stats.CoveredBlocks {
					t.Errorf("%s: covered %d != baseline %d", tag, rep.Stats.CoveredBlocks, base.Stats.CoveredBlocks)
				}
				bs, rs := base.Stats.SolverStats, rep.Stats.SolverStats
				if rs.Queries != bs.Queries || rs.Sat != bs.Sat || rs.Unsat != bs.Unsat || rs.Failures != bs.Failures {
					t.Errorf("%s: solver verdicts q=%d/sat=%d/unsat=%d/fail=%d != baseline q=%d/sat=%d/unsat=%d/fail=%d",
						tag, rs.Queries, rs.Sat, rs.Unsat, rs.Failures, bs.Queries, bs.Sat, bs.Unsat, bs.Failures)
				}
				if fmt.Sprint(bugKeys(rep)) != fmt.Sprint(bugKeys(base)) {
					t.Errorf("%s: bug reports diverged", tag)
				}
			}
		})
	}
}
