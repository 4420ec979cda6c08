package symex_test

import (
	"fmt"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// The strategy-conformance suite is the subsystem's trust anchor: a
// search strategy only decides *order*, so on an exhaustive run every
// strategy — at any worker count — must produce byte-identical sorted
// bug reports and identical path/instruction/coverage verdicts. A
// strategy that loses, duplicates or re-executes a state shows up here
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

// verifyStrat compiles a corpus program and explores it with the given
// strategy and worker count.
func verifyStrat(t *testing.T, p coreutils.Program, level pipeline.Level,
	n, workers int, strat symex.SearchKind) *symex.Report {
	t.Helper()
	c, err := core.CompileProgram(p, level)
	if err != nil {
		t.Fatalf("%s at %s: %v", p.Name, level, err)
	}
	opts := core.VerifyOptions{InputBytes: n}
	opts.Engine.Workers = workers
	opts.Engine.Strategy = strat
	rep, err := c.Verify("umain", opts)
	if err != nil {
		t.Fatalf("%s at %s: verify: %v", p.Name, level, err)
	}
	return rep
}

// TestStrategyConformance: every strategy × workers∈{1,4} must match
// the dfs/workers=1 baseline exactly — sorted bug reports (kind,
// message, location), path counts, instruction count and block
// coverage. Subtests are named per strategy so CI can matrix over
// -run TestStrategyConformance/<name>.
func TestStrategyConformance(t *testing.T) {
	programs := conformanceCorpus(t)
	baseline := make(map[string]*symex.Report, len(programs))
	for _, p := range programs {
		baseline[p.Name] = verifyStrat(t, p, pipeline.OVerify, 3, 1, symex.DFS)
	}
	for _, strat := range symex.Strategies() {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				for _, p := range programs {
					rep := verifyStrat(t, p, pipeline.OVerify, 3, workers, strat)
					base := baseline[p.Name]
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
					// The solver's verdict surface is schedule-invariant
					// on an exhaustive run: the same branches are queried
					// and decide the same way no matter the order, so the
					// per-query counters must match exactly. (Cache and
					// reuse hit counters legitimately vary per schedule.)
					bs, rs := base.Stats.SolverStats, rep.Stats.SolverStats
					if rs.Queries != bs.Queries || rs.Sat != bs.Sat || rs.Unsat != bs.Unsat || rs.Failures != bs.Failures {
						t.Errorf("%s: solver verdicts q=%d/sat=%d/unsat=%d/fail=%d != baseline q=%d/sat=%d/unsat=%d/fail=%d",
							tag, rs.Queries, rs.Sat, rs.Unsat, rs.Failures, bs.Queries, bs.Sat, bs.Unsat, bs.Failures)
					}
					bk, bb := bugKeys(rep), bugKeys(base)
					if fmt.Sprint(bk) != fmt.Sprint(bb) {
						t.Errorf("%s: bug reports %v != baseline %v", tag, bk, bb)
					}
				}
			}
		})
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
				base := verifyStrat(t, p, level, 3, 1, symex.DFS)
				rep := verifyStrat(t, p, level, 3, 4, symex.DFS)
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

// TestStrategyConformanceSeededBugs: the seeded-defect programs from
// the parallel suite must yield their bug under every strategy, with a
// reproducing input attached.
func TestStrategyConformanceSeededBugs(t *testing.T) {
	for _, strat := range symex.Strategies() {
		for _, bp := range buggyPrograms {
			n := bp.n
			if n == 0 {
				n = 3
			}
			c, err := core.CompileSource(bp.name, bp.src, pipeline.OVerify, core.DefaultLibc(pipeline.OVerify))
			if err != nil {
				t.Fatal(err)
			}
			opts := core.VerifyOptions{InputBytes: n}
			opts.Engine.Workers = 4
			opts.Engine.Strategy = strat
			rep, err := c.Verify("umain", opts)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, b := range rep.Bugs {
				if containsSub(b.Kind.String(), bp.kind) || containsSub(b.Msg, bp.kind) {
					found = true
					if b.Input == nil {
						t.Errorf("%s/%s: bug %q has no reproducing input", strat, bp.name, b.Msg)
					}
				}
			}
			if !found {
				t.Errorf("%s/%s: seeded %q bug not found (bugs: %v)", strat, bp.name, bp.kind, rep.Bugs)
			}
		}
	}
}

// TestCovnewCoverageEffortAtMostDFS: the point of the coverage-weighted
// picker. On branchy corpus programs, reaching full block coverage
// (CoverTarget = the exhaustive run's block count) must cost covnew no
// more explored states than dfs — and strictly fewer on at least one.
func TestCovnewCoverageEffortAtMostDFS(t *testing.T) {
	strictlyBetter := false
	for _, name := range []string{"wc", "uniq", "seq"} {
		p, ok := coreutils.Get(name)
		if !ok {
			t.Fatalf("no corpus program %q", name)
		}
		c, err := core.CompileProgram(p, pipeline.O0)
		if err != nil {
			t.Fatal(err)
		}
		full, err := c.Verify("umain", core.VerifyOptions{InputBytes: 3})
		if err != nil {
			t.Fatal(err)
		}
		total := full.Stats.CoveredBlocks
		statesToCover := func(strat symex.SearchKind) int64 {
			opts := core.VerifyOptions{InputBytes: 3}
			opts.Engine.Strategy = strat
			opts.Engine.CoverTarget = total
			rep, err := c.Verify("umain", opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stats.CoveredBlocks < total {
				t.Errorf("%s/%s: stopped at %d blocks, want %d", name, strat, rep.Stats.CoveredBlocks, total)
			}
			return rep.Stats.StatesExplored
		}
		dfs := statesToCover(symex.DFS)
		covnew := statesToCover(symex.CovNew)
		t.Logf("%s: %d blocks, states to cover: dfs=%d covnew=%d", name, total, dfs, covnew)
		if covnew > dfs {
			t.Errorf("%s: covnew explored %d states to full coverage, dfs only %d", name, covnew, dfs)
		}
		if covnew < dfs {
			strictlyBetter = true
		}
	}
	if !strictlyBetter {
		t.Error("covnew never reached coverage in strictly fewer states than dfs")
	}
}
