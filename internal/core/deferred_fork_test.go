package core_test

import (
	"slices"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// TestDeferredForkCellsWorkNoMoreThanO0: nl and tac are the deep_paths
// cells where if-conversion turned a branch into a select whose value
// a later branch still forks on, as an ite chain the solver searches.
// Run serially at the ledger's deep_paths budgets, -OVERIFY must now do
// no more work (instructions plus solver assignments) than -O0 and
// report the same bugs. Before sites were priced the two cells read
// 132,230 and 93,808.
func TestDeferredForkCellsWorkNoMoreThanO0(t *testing.T) {
	for _, cell := range []struct {
		prog string
		n    int
		o0   int64 // -O0's work at the same budgets
	}{
		{"nl", 8, 30_554},
		{"tac", 7, 50_145},
	} {
		p, _ := coreutils.Get(cell.prog)
		var bugs [2][]string
		var work [2]int64
		for i, level := range []pipeline.Level{pipeline.O0, pipeline.OVerify} {
			c, err := core.CompileProgram(p, level)
			if err != nil {
				t.Fatal(err)
			}
			vo := core.VerifyOptions{InputBytes: cell.n}
			vo.Engine.MaxInstrs = 20_000_000
			vo.Engine.MaxAssignments = 50_000_000
			rep, err := c.Verify("umain", vo)
			if err != nil {
				t.Fatal(err)
			}
			if v, why := rep.Verdict(); v == symex.Inconclusive {
				t.Errorf("%s %s n=%d: inconclusive: %v", cell.prog, level, cell.n, why)
			}
			work[i] = rep.Stats.Instrs + rep.Stats.SolverStats.Assignments
			for _, b := range rep.Bugs {
				bugs[i] = append(bugs[i], b.Kind.String())
			}
			slices.Sort(bugs[i])
			t.Logf("%s %s n=%d: %d paths, %d instrs + %d assignments = %d", cell.prog, level, cell.n,
				rep.Stats.TotalPaths(), rep.Stats.Instrs, rep.Stats.SolverStats.Assignments, work[i])
		}
		if work[0] != cell.o0 {
			t.Errorf("%s -O0 n=%d: work %d, want %d", cell.prog, cell.n, work[0], cell.o0)
		}
		if work[1] > work[0] {
			t.Errorf("%s -OVERIFY n=%d: work %d, more than -O0's %d", cell.prog, cell.n, work[1], work[0])
		}
		if !slices.Equal(bugs[0], bugs[1]) {
			t.Errorf("%s n=%d: bugs %q at -O0, %q at -OVERIFY", cell.prog, cell.n, bugs[0], bugs[1])
		}
	}
}
