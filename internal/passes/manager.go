package passes

import (
	"time"

	"overify/internal/ir"
)

// Manager schedules a pass sequence over a module. It is the layer the
// pipeline package drives and adds two things over calling Pass.Run in
// a loop:
//
//   - analysis caching: after every changed run it invalidates, in the
//     Context's per-function cache, exactly what the pass's Preserves
//     declaration does not cover;
//   - change-driven fixpoints: a Fixpoint over FunctionPasses runs as
//     a per-function worklist — each function iterates the body until
//     *it* reports a round with no change and is then skipped, instead
//     of riding along for every other function's remaining rounds.
//
// A skipped function run is one that would have reported no change
// (function passes are independent across functions and
// deterministic), so the schedule emits the same IR and Stats as
// global rounds over every function would.
type Manager struct {
	// AfterPass, when set, runs after every top-level pass completes
	// (pipeline.Config.VerifyEachPass re-verifies the IR here). A
	// non-nil error aborts the run.
	AfterPass func(p Pass) error
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

// Run executes seq over m, threading cx (cost model, stats, analysis
// cache) through every pass.
func (mgr *Manager) Run(m *ir.Module, seq []Pass, cx *Context) (*RunMetrics, error) {
	rm := &RunMetrics{}
	for _, p := range seq {
		mgr.runStage(m, p, cx, rm)
		rm.StagesRun++
		if mgr.AfterPass != nil {
			if err := mgr.AfterPass(p); err != nil {
				return rm, err
			}
		}
	}
	return rm, nil
}

// fixpointer is what Fixpoint builds; the manager unpacks it to drive
// the worklist itself.
type fixpointer interface {
	Pass
	Rounds() int
	Body() []Pass
}

func (mgr *Manager) runStage(m *ir.Module, p Pass, cx *Context, rm *RunMetrics) {
	if fp, ok := p.(fixpointer); ok {
		if body, allFunc := functionBody(fp.Body()); allFunc {
			mgr.runFixpoint(m, body, fp.Rounds(), cx, rm)
			return
		}
		// A fixpoint containing a module pass (none of the built-in
		// pipelines build one) falls back to module-level rounds.
	}
	if fp, ok := p.(FunctionPass); ok {
		var t passTally
		for _, f := range definedFuncs(m) {
			runTimed(fp, f, cx, &t)
		}
		rm.add(p.Name(), t)
		return
	}
	// Module pass (or a fixpoint containing one). The Run
	// implementations invalidate the analyses they clobber per function
	// themselves (see the Pass contract).
	start := time.Now()
	changed := p.Run(m, cx)
	t := passTally{invocations: 1, wall: time.Since(start)}
	if changed {
		t.changed = 1
	}
	rm.add(p.Name(), t)
}

// functionBody asserts every pass in body is a FunctionPass.
func functionBody(body []Pass) ([]FunctionPass, bool) {
	out := make([]FunctionPass, 0, len(body))
	for _, p := range body {
		fp, ok := p.(FunctionPass)
		if !ok {
			return nil, false
		}
		out = append(out, fp)
	}
	return out, true
}

// runFixpoint drives a fixpoint stage over function passes: each
// function runs the body until a round changes nothing, or the rounds
// run out.
func (mgr *Manager) runFixpoint(m *ir.Module, body []FunctionPass, limit int, cx *Context, rm *RunMetrics) {
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
