package passes

import (
	"time"

	"overify/internal/ir"
)

// Stage is one step of a schedule as the manager runs it: Passes run
// once in order, or, when Rounds > 0, as a fixpoint — round after round
// until a round changes nothing or Rounds rounds have run.
// pipeline.PipelineSpec.Build produces one per spec stage.
type Stage struct {
	Passes []Pass
	Rounds int
}

// Manager runs a schedule of stages over a module. It adds two things
// over calling Pass.Run in a loop:
//
//   - analysis caching: after every changed run it invalidates, in the
//     Context's per-function cache, exactly what the pass's Preserves
//     declaration does not cover;
//   - change-driven fixpoints: a fixpoint over FunctionPasses runs as a
//     per-function worklist — each function iterates the body until
//     *it* reports a round with no change and is then skipped, instead
//     of riding along for every other function's remaining rounds.
//
// A skipped function run is one that would have reported no change
// (function passes are independent across functions and
// deterministic), so the schedule emits the same IR and Stats as
// global rounds over every function would. A fixpoint whose body holds
// a module pass runs in such global rounds.
type Manager struct {
	// AfterStage, when set, runs after stage i completes
	// (pipeline.Config.VerifyEachPass re-verifies the IR here). A
	// non-nil error aborts the run.
	AfterStage func(i int) error
}

// PassMetric is one pass's counters across a run, aggregated by name.
type PassMetric struct {
	Name        string
	Invocations int // function-level executions (module passes: 1 per Run)
	Changed     int // executions that reported a change
	Skipped     int // executions avoided by function-level change tracking
	Wall        time.Duration
}

// RunMetrics is what Manager.Run reports; pipeline.Result surfaces it.
type RunMetrics struct {
	Passes      []PassMetric // per pass name, first-appearance order
	Invocations int          // total function-level pass executions
	Skipped     int          // total executions avoided by change tracking
	StagesRun   int          // top-level passes run
}

// add accumulates a tally into the named pass's metric.
func (rm *RunMetrics) add(name string, t passTally) {
	rm.Invocations += t.invocations
	rm.Skipped += t.skipped
	for i := range rm.Passes {
		if rm.Passes[i].Name == name {
			rm.Passes[i].Invocations += t.invocations
			rm.Passes[i].Changed += t.changed
			rm.Passes[i].Skipped += t.skipped
			rm.Passes[i].Wall += t.wall
			return
		}
	}
	rm.Passes = append(rm.Passes, PassMetric{
		Name: name, Invocations: t.invocations, Changed: t.changed,
		Skipped: t.skipped, Wall: t.wall,
	})
}

// passTally is one stage's counters for one pass.
type passTally struct {
	invocations int
	changed     int
	skipped     int
	wall        time.Duration
}

// Run executes the stages over m, threading cx (cost model, stats,
// analysis cache) through every pass.
func (mgr *Manager) Run(m *ir.Module, stages []Stage, cx *Context) (*RunMetrics, error) {
	rm := &RunMetrics{}
	for i, st := range stages {
		runStage(m, st, cx, rm)
		rm.StagesRun++
		if mgr.AfterStage != nil {
			if err := mgr.AfterStage(i); err != nil {
				return rm, err
			}
		}
	}
	return rm, nil
}

// runStage runs one stage: a fixpoint over function passes as a
// per-function worklist, anything else over the whole module.
func runStage(m *ir.Module, st Stage, cx *Context, rm *RunMetrics) {
	if st.Rounds > 0 {
		body := make([]FunctionPass, 0, len(st.Passes))
		for _, p := range st.Passes {
			if fp, ok := p.(FunctionPass); ok {
				body = append(body, fp)
			}
		}
		if len(body) == len(st.Passes) {
			runFixpoint(m, body, st.Rounds, cx, rm)
			return
		}
	}
	runRounds(m, st, cx, rm)
}

// runRounds runs the stage's passes over the whole module: once, or
// for a fixpoint holding a module pass, round after round until one
// changes nothing or the cap is reached. Each pass is tallied under its
// own name.
func runRounds(m *ir.Module, st Stage, cx *Context, rm *RunMetrics) {
	for round := 0; round < max(st.Rounds, 1); round++ {
		changed := false
		for _, p := range st.Passes {
			var t passTally
			if runOnModule(p, m, cx, &t) {
				changed = true
			}
			rm.add(p.Name(), t)
		}
		if !changed {
			break
		}
	}
}

// runOnModule executes one pass over the module: a function pass once
// per defined function, a module pass once. A module pass's Run
// invalidates the analyses it clobbers per function itself (see the
// Pass contract).
func runOnModule(p Pass, m *ir.Module, cx *Context, t *passTally) bool {
	if fp, ok := p.(FunctionPass); ok {
		changed := false
		for _, f := range definedFuncs(m) {
			if runTimed(fp, f, cx, t) {
				changed = true
			}
		}
		return changed
	}
	start := time.Now()
	changed := p.Run(m, cx)
	t.wall += time.Since(start)
	t.invocations++
	if changed {
		t.changed++
	}
	return changed
}

// runFixpoint drives a fixpoint stage over function passes: each
// function runs the body until a round changes nothing, or the rounds
// run out.
func runFixpoint(m *ir.Module, body []FunctionPass, limit int, cx *Context, rm *RunMetrics) {
	tallies := make([]passTally, len(body))
	var rounds []int // per function
	for _, f := range definedFuncs(m) {
		n := 0
		for n < limit {
			n++
			any := false
			for pi, p := range body {
				if runTimed(p, f, cx, &tallies[pi]) {
					any = true
				}
			}
			if !any {
				break
			}
		}
		rounds = append(rounds, n)
	}
	// Global rounds would run every function for as many rounds as the
	// slowest-settling function needed; everything under that
	// high-water mark is a skipped execution.
	maxRounds, skipped := 0, 0
	for _, n := range rounds {
		maxRounds = max(maxRounds, n)
	}
	for _, n := range rounds {
		skipped += maxRounds - n
	}
	for pi, p := range body {
		tallies[pi].skipped = skipped
		rm.add(p.Name(), tallies[pi])
	}
}

// runTimed executes one pass on one function, invalidating what the
// pass clobbers when it reports a change.
func runTimed(p FunctionPass, f *ir.Function, cx *Context, t *passTally) bool {
	start := time.Now()
	changed := p.RunOnFunc(f, cx)
	t.wall += time.Since(start)
	t.invocations++
	if changed {
		t.changed++
		cx.Invalidate(f, p.Preserves())
	}
	return changed
}

func definedFuncs(m *ir.Module) []*ir.Function {
	out := make([]*ir.Function, 0, len(m.Funcs))
	for _, f := range m.Funcs {
		if !f.IsDeclaration() {
			out = append(out, f)
		}
	}
	return out
}
