package main

import (
	"time"

	"overify/internal/core"
	"overify/internal/expr"
	"overify/internal/ir"
	"overify/internal/passes"
	"overify/internal/pipeline"
	"overify/internal/solver"
	"overify/internal/symex"
)

// The probes below run once per traced run, after the timed passes.
// They measure layers that no job in the list calls on its own, or
// that could only be measured inside a job by slowing it down.

// firstJobPerProgram visits each distinct program of the list once.
func (w *coldWorkload) firstJobPerProgram(visit func(i int, j coldJob)) {
	seen := map[string]bool{}
	for i, j := range w.list {
		if !seen[j.Prog.Name] {
			seen[j.Prog.Name] = true
			visit(i, j)
		}
	}
}

// sliceProbe compiles each program once at -OVERIFY with the slicing
// stages on — no workload job enables them — so the slice and
// loopsummary passes have a wall time and a change count like the
// other thirteen, and the instructions they delete are counted.
func (w *coldWorkload) sliceProbe(a *coldCounters) {
	w.firstJobPerProgram(func(_ int, j coldJob) {
		cfg := pipeline.LevelConfig(pipeline.OVerify)
		cfg.Slice = true
		c, err := core.CompileWithConfig(j.Prog.Name, j.Prog.Src, cfg, core.DefaultLibc(pipeline.OVerify))
		if err != nil {
			return // the timed passes already report a program that does not compile
		}
		for _, pm := range c.Result.PassTimings {
			if pm.Name == "slice" || pm.Name == "loopsummary" {
				a.passWall[pm.Name] += pm.Wall
				a.passChanged[pm.Name] += int64(pm.Changed)
			}
		}
		a.sliced += int64(c.Result.Stats.InstrsSliced)
	})
}

// relevanceMS times the check-relevance analysis alone on each
// program's module from the reference pass.
func (w *coldWorkload) relevanceMS() float64 {
	var total time.Duration
	w.firstJobPerProgram(func(i int, _ coldJob) {
		t0 := time.Now()
		passes.ComputeRelevance(w.refs[i].c.Mod, ir.AllChecks)
		total += time.Since(t0)
	})
	return float64(total) / 1e6
}

// replayJobs caps the solver replay: a long list is sampled at a fixed
// stride so the probe stays a few seconds.
const replayJobs = 64

// solverReplay is what the replay probe measured, all in milliseconds.
type solverReplay struct {
	explore float64 // exploring the sampled jobs (with capture on)
	replay  float64 // replaying their captured queries through a fresh solver
	search  float64 // the part of replay spent in queries that ran a search or a race
}

// replaySolver isolates the solver from the engine: each sampled job is
// explored once more with solver.CaptureQuery installed, and the
// captured query stream is replayed through a fresh solver. replay
// against explore is the solver's share of exploration with partition
// carrying and state handling taken out; search is the replay time of
// the queries that compiled a tape, reused one or entered a portfolio
// race, as opposed to being answered by the cache or a reused model.
func (w *coldWorkload) replaySolver() solverReplay {
	var explore, replay, search time.Duration
	stride := (len(w.list) + replayJobs - 1) / replayJobs
	for i := 0; i < len(w.list); i += stride {
		j := w.list[i]
		vo := verifyOptions(j, w.b)
		var queries [][]*expr.Expr
		solver.CaptureQuery = func(q []*expr.Expr) {
			queries = append(queries, append([]*expr.Expr(nil), q...))
		}
		eng := symex.NewEngine(w.refs[i].c.Mod, vo.Engine)
		args := entryArgs(eng, j.Bytes)
		t0 := time.Now()
		_, err := eng.Run("umain", args, nil)
		explore += time.Since(t0)
		solver.CaptureQuery = nil
		if err != nil {
			continue
		}
		sol := solver.New(vo.Engine.Solver)
		searches := func() int64 {
			return sol.Stats.TapeCompiles + sol.Stats.TapeReuses + sol.Stats.PortfolioRaces
		}
		for _, q := range queries {
			before := searches()
			t0 := time.Now()
			// A query past the budget errors here as it did in the run;
			// its cost is the point, its verdict is not.
			_, _, _ = sol.Sat(q)
			d := time.Since(t0)
			replay += d
			if searches() != before {
				search += d
			}
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return solverReplay{explore: ms(explore), replay: ms(replay), search: ms(search)}
}
