package core_test

import (
	"bytes"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/libc"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

var allLevels = []pipeline.Level{
	pipeline.O0, pipeline.O1, pipeline.O2, pipeline.O3, pipeline.OVerify,
}

// corpus returns the programs under test: the full suite normally, a
// representative slice in -short mode (these sweeps cost a few seconds
// each at full size).
func corpus(t *testing.T) []coreutils.Program {
	all := coreutils.All()
	if testing.Short() && len(all) > 8 {
		return all[:8]
	}
	return all
}

// TestCorpusCompilesEverywhere compiles every corpus program at every
// level with both libc variants; any pass bug that breaks the IR
// verifier fails here.
func TestCorpusCompilesEverywhere(t *testing.T) {
	for _, p := range corpus(t) {
		for _, level := range allLevels {
			for _, lk := range []libc.Kind{libc.Uclibc, libc.Verified} {
				if _, err := core.CompileSource(p.Name, p.Src, level, lk); err != nil {
					t.Errorf("%s at %s with %s: %v", p.Name, level, lk, err)
				}
			}
		}
	}
}

// TestCorpusDifferential is the §2.3 equivalence argument as a test:
// every program, on its sample input, must produce the same exit code
// and output at every optimization level and with both libc variants.
func TestCorpusDifferential(t *testing.T) {
	for _, p := range corpus(t) {
		var wantExit int64
		var wantOut []byte
		first := true
		for _, level := range allLevels {
			for _, lk := range []libc.Kind{libc.Uclibc, libc.Verified} {
				c, err := core.CompileSource(p.Name, p.Src, level, lk)
				if err != nil {
					t.Fatalf("%s at %s/%s: compile: %v", p.Name, level, lk, err)
				}
				rr, err := c.Run("umain", []byte(p.Sample))
				if err != nil {
					t.Errorf("%s at %s/%s: run: %v", p.Name, level, lk, err)
					continue
				}
				if first {
					wantExit, wantOut, first = rr.Exit, rr.Output, false
					continue
				}
				if rr.Exit != wantExit {
					t.Errorf("%s at %s/%s: exit = %d, want %d", p.Name, level, lk, rr.Exit, wantExit)
				}
				if !bytes.Equal(rr.Output, wantOut) {
					t.Errorf("%s at %s/%s: output = %q, want %q", p.Name, level, lk, rr.Output, wantOut)
				}
			}
		}
	}
}

// TestCorpusVerifySmall runs exhaustive symbolic execution with 2 input
// bytes on every program at -OVERIFY; nothing should report bugs (the
// corpus is believed correct) and nothing should time out.
func TestCorpusVerifySmall(t *testing.T) {
	for _, p := range corpus(t) {
		c, err := core.CompileProgram(p, pipeline.OVerify)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		rep, err := c.Verify("umain", core.VerifyOptions{InputBytes: 2})
		if err != nil {
			t.Errorf("%s: verify: %v", p.Name, err)
			continue
		}
		if rep.Stats.TimedOut {
			t.Errorf("%s: timed out", p.Name)
		}
		if len(rep.Bugs) != 0 {
			t.Errorf("%s: unexpected bugs: %v", p.Name, rep.Bugs)
		}
		if rep.Stats.Paths == 0 {
			t.Errorf("%s: no paths completed", p.Name)
		}
	}
}

// TestBudgetAccountingRegression pins the bug that motivated making the
// solver budget evaluator-independent: basename at -O3/-OVERIFY with a
// 3-byte input has three "last slash index" groups whose unsat proofs
// blew the compiled tape's slot-tick budget (trading 3 unsat verdicts
// for ErrBudget failures), even though the same groups were decided
// under the legacy evaluator's accounting. With budget counted in
// assignments tried and value-set propagation closing the pathological
// groups, every query must now be decided: zero budget failures, and
// the unsat verdicts are back.
func TestBudgetAccountingRegression(t *testing.T) {
	p, ok := coreutils.Get("basename")
	if !ok {
		t.Fatal("basename not in corpus")
	}
	for _, level := range []pipeline.Level{pipeline.O3, pipeline.OVerify} {
		c, err := core.CompileProgram(p, level)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		rep, err := c.Verify("umain", core.VerifyOptions{InputBytes: 3})
		if err != nil {
			t.Fatalf("%s: verify: %v", level, err)
		}
		ss := rep.Stats.SolverStats
		if ss.Failures != 0 {
			t.Errorf("%s: %d budget failures, want 0 (queries=%d unsat=%d)",
				level, ss.Failures, ss.Queries, ss.Unsat)
		}
		if ss.Unsat < 3 {
			t.Errorf("%s: %d unsat verdicts, want >= 3", level, ss.Unsat)
		}
		if len(rep.Bugs) != 0 {
			t.Errorf("%s: unexpected bugs: %v", level, rep.Bugs)
		}
	}
}

// TestMaxAssignmentsStopsDeterministically: the solver-assignment
// budget is the deterministic stand-in for a wall-clock timeout (the
// ledger's budget on every cold workload), so a serial run must stop at
// the same query every time it is given the same job.
func TestMaxAssignmentsStopsDeterministically(t *testing.T) {
	p, ok := coreutils.Get("basename")
	if !ok {
		t.Fatal("basename not in corpus")
	}
	c, err := core.CompileProgram(p, pipeline.OVerify)
	if err != nil {
		t.Fatal(err)
	}
	run := func(max int64) symex.Stats {
		opts := core.VerifyOptions{InputBytes: 4}
		opts.Engine.MaxAssignments = max
		rep, err := c.Verify("umain", opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats
	}
	a, b := run(4096), run(4096)
	if !a.TimedOut || a.SolverStats.Assignments < 4096 {
		t.Fatalf("budget did not engage: timedOut=%v after %d assignments", a.TimedOut, a.SolverStats.Assignments)
	}
	if a.SolverStats.Assignments != b.SolverStats.Assignments || a.Instrs != b.Instrs ||
		a.TotalPaths() != b.TotalPaths() || a.SolverStats.Queries != b.SolverStats.Queries {
		t.Errorf("budget stop diverged between identical runs:\n  a: assigns=%d instrs=%d paths=%d queries=%d\n  b: assigns=%d instrs=%d paths=%d queries=%d",
			a.SolverStats.Assignments, a.Instrs, a.TotalPaths(), a.SolverStats.Queries,
			b.SolverStats.Assignments, b.Instrs, b.TotalPaths(), b.SolverStats.Queries)
	}
	if full := run(0); full.TimedOut || full.TruncatedPaths > 0 || full.SolverStats.Queries <= a.SolverStats.Queries {
		t.Errorf("uncapped run did not complete past the cap: timedOut=%v truncated=%d queries=%d (capped %d)",
			full.TimedOut, full.TruncatedPaths, full.SolverStats.Queries, a.SolverStats.Queries)
	}
}
