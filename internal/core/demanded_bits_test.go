package core_test

import (
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/dist"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// TestBase32DecidesAtN4: base32 branches on `((acc >> k) & 31) < 26`
// over an accumulator `acc = (acc << 8) | input[i]`. Each such
// constraint reads at most two input bytes, and the builder's
// demanded-bits rewrite of `and x, C` makes its term name only those,
// so at n=4 the solver searches chains of two-byte constraints instead
// of one four-byte group. Every level then decides every query within
// these budgets. When the terms named every byte shifted into acc,
// every level ran out of its assignment budget (8,027,716 assignments
// counted) and ended inconclusive with no completed path. The
// normalized render does not depend on the worker count.
func TestBase32DecidesAtN4(t *testing.T) {
	p, _ := coreutils.Get("base32")
	o3checks := pipeline.LevelConfig(pipeline.O3)
	spec := pipeline.Passes(o3checks)
	spec.Stages = append(spec.Stages, pipeline.Stage{Pass: "checks"})
	o3checks.Pipeline = &spec
	configs := map[string]pipeline.Config{
		"-O0":        pipeline.LevelConfig(pipeline.O0),
		"-O3":        pipeline.LevelConfig(pipeline.O3),
		"-OVERIFY":   pipeline.LevelConfig(pipeline.OVerify),
		"-O3+checks": o3checks,
	}
	for _, cell := range []struct {
		level              string
		n                  int
		paths, assignments int64
	}{
		{"-O0", 4, 109, 861_911},
		{"-O3", 4, 109, 861_911},
		{"-OVERIFY", 4, 109, 861_911},
		{"-O3+checks", 4, 109, 861_911},
		{"-OVERIFY", 3, 45, 224_145},
	} {
		cfg := configs[cell.level]
		c, err := core.CompileWithConfig(p.Name, p.Src, cfg, core.DefaultLibc(cfg.Level))
		if err != nil {
			t.Fatal(err)
		}
		var renders [2]string
		for i, workers := range []int{1, 4} {
			vo := core.VerifyOptions{InputBytes: cell.n}
			vo.Engine.Workers = workers
			vo.Engine.MaxInstrs = 20_000_000
			vo.Engine.MaxAssignments = 4_000_000
			rep, err := c.Verify("umain", vo)
			if err != nil {
				t.Fatal(err)
			}
			renders[i] = dist.NormalizedRender(rep)
			if workers != 1 {
				continue
			}
			s := rep.Stats
			if v, why := rep.Verdict(); v != symex.Verified {
				t.Errorf("base32 %s n=%d: verdict %s %v, want verified", cell.level, cell.n, v, why)
			}
			if s.TotalPaths() != cell.paths || s.SolverStats.Failures != 0 || s.SolverStats.Assignments != cell.assignments {
				t.Errorf("base32 %s n=%d: %d paths, %d solver failures, %d assignments; want %d, 0, %d",
					cell.level, cell.n, s.TotalPaths(), s.SolverStats.Failures, s.SolverStats.Assignments,
					cell.paths, cell.assignments)
			}
		}
		if renders[0] != renders[1] {
			t.Errorf("base32 %s n=%d: -j 4 render differs from -j 1:\n%s\nvs\n%s",
				cell.level, cell.n, renders[1], renders[0])
		}
	}
}
