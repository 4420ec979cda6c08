package core_test

import (
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// TestTailDecidesAtN4: tail reads input[i] at i = strlen(input) -
// input[0] % 8, so its path condition compares a symbolic read with 0:
// a chain of selects over the buffer's bytes, each on a condition of
// input[0]. Once input[0] is bound every condition is known and the
// constraint reads one byte, so forward checking on live variables
// (tapeState.unassignedIn) filters that byte at once, and every level
// decides every query at the default budget. While the filter waited
// for every byte the constraint mentions, the search walked the product
// of the other open bytes to its budget, and each level ended
// inconclusive with one undecided query.
func TestTailDecidesAtN4(t *testing.T) {
	p, _ := coreutils.Get("tail")
	for _, cell := range []struct {
		level              pipeline.Level
		paths, assignments int64
	}{
		{pipeline.O0, 18, 45_770},
		{pipeline.O3, 14, 57_228},
		{pipeline.OVerify, 14, 57_228},
	} {
		c, err := core.CompileProgram(p, cell.level)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Verify("umain", core.VerifyOptions{InputBytes: 4})
		if err != nil {
			t.Fatal(err)
		}
		s := rep.Stats
		if v, why := rep.Verdict(); v != symex.Verified {
			t.Errorf("tail %s n=4: verdict %s %v, want verified", cell.level, v, why)
		}
		if s.TotalPaths() != cell.paths || s.SolverStats.Failures != 0 || s.SolverStats.Assignments != cell.assignments {
			t.Errorf("tail %s n=4: %d paths, %d solver failures, %d assignments; want %d, 0, %d",
				cell.level, s.TotalPaths(), s.SolverStats.Failures, s.SolverStats.Assignments,
				cell.paths, cell.assignments)
		}
	}
}
