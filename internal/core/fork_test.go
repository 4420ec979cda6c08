package core_test

import (
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// TestUndecidedBranchSideForks: at a conditional branch whose one side
// is satisfiable and whose other side the solver cannot decide, the
// engine forks as for two satisfiable sides. At the default budget the
// search decides every query of tail at n=4 (TestTailDecidesAtN4); under
// a budget cut just below what its hardest group needs, one group stays
// undecided at -O0 and at -OVERIFY, and following its undecided side
// keeps the decided run's 18 and 14 paths. No bug is reported, because
// every bug site needs a satisfiable query, and the verdict stays
// inconclusive.
func TestUndecidedBranchSideForks(t *testing.T) {
	p, _ := coreutils.Get("tail")
	for _, cell := range []struct {
		level         pipeline.Level
		maxWork       int64
		paths, instrs int64
	}{
		{pipeline.O0, 5_000, 18, 864},
		{pipeline.OVerify, 7_000, 14, 325},
	} {
		c, err := core.CompileProgram(p, cell.level)
		if err != nil {
			t.Fatal(err)
		}
		vo := core.VerifyOptions{InputBytes: 4}
		vo.Engine.Solver.MaxWork = cell.maxWork
		rep, err := c.Verify("umain", vo)
		if err != nil {
			t.Fatal(err)
		}
		s := rep.Stats
		if s.TotalPaths() != cell.paths || s.Instrs != cell.instrs {
			t.Errorf("tail %s: %d paths, %d instrs; want %d, %d",
				cell.level, s.TotalPaths(), s.Instrs, cell.paths, cell.instrs)
		}
		if len(rep.Bugs) != 0 {
			t.Errorf("tail %s: bugs %v on an undecided side", cell.level, rep.Bugs)
		}
		if v, why := rep.Verdict(); v != symex.Inconclusive || s.SolverStats.Failures == 0 {
			t.Errorf("tail %s: verdict %s %v with %d undecided queries, want inconclusive",
				cell.level, v, why, s.SolverStats.Failures)
		}
	}
}
