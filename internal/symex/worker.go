package symex

import (
	"time"

	"overify/internal/expr"
	"overify/internal/ir"
	"overify/internal/solver"
)

// instrFlushStride is how many locally counted instructions a worker
// accumulates before flushing into the engine-wide total and checking
// global limits. Batching keeps the shared counter off the per-
// instruction hot path; the stride bounds how far the global count and
// the limit checks can lag.
const instrFlushStride = 1024

// worker is one exploration goroutine: a private solver (the search
// state is not concurrency-safe) over the shared query cache, a private
// bug list (merged deterministically after the run), and a local
// instruction counter batched into the engine totals.
type worker struct {
	e   *Engine
	id  int
	B   *expr.Builder
	fr  *frontier
	sol *solver.Solver

	bugs        []Bug
	localInstrs int64      // not yet flushed to e.instrs
	lastAssigns int64      // solver assignments already flushed to e.assigns
	lastBlock   *ir.Block  // last block marked covered
	phiVals     []SymVal   // jump's batch of phi values, reused per jump
	free        [][]*Frame // returned frames by function, for the next call to reuse
}

// frame returns a blank frame of lay's function, reusing a returned
// one when there is one.
func (w *worker) frame(lay *frameLayout) *Frame {
	l := w.free[lay.id]
	if len(l) == 0 {
		return &Frame{Regs: make([]SymVal, len(lay.allocas))}
	}
	w.free[lay.id] = l[:len(l)-1]
	return l[len(l)-1]
}

// newFrame is Engine.newFrame on a reused frame.
func (w *worker) newFrame(fn *ir.Function, caller *ir.Instr) *Frame {
	lay := w.e.layouts[fn]
	f := w.frame(lay)
	*f = Frame{Fn: fn, Block: fn.Entry(), Regs: f.Regs, Caller: caller, lay: lay}
	return f
}

// recycle takes back a frame its state let go of.
func (w *worker) recycle(f *Frame) {
	clear(f.Regs)
	w.free[f.lay.id] = append(w.free[f.lay.id], f)
}

// drop takes back the frames of a state whose path ended.
func (w *worker) drop(st *State) {
	for _, f := range st.Frames {
		w.recycle(f)
	}
	st.Frames = nil
}

// run is the worker loop: take a state, explore its whole subtree
// depth-first (publishing the other side of each fork), repeat.
func (w *worker) run() {
	defer w.flushInstrs()
	for {
		st := w.fr.take(w.id, w.e.stopped.Load)
		if st == nil {
			return
		}
		w.e.explored.Add(1)
		w.explore(st)
	}
}

// explore drives one held state to the end of its path, following the
// deepest continuation of each fork immediately (depth-first keeps the
// constraint prefix hot) and publishing the rest for stealing.
func (w *worker) explore(st *State) {
	for {
		stop, forked := w.step(st)
		if stop {
			// A global limit fired: drain pending work as truncated and
			// count the state this worker was holding. Other workers
			// observe e.stopped at their next check and do the same for
			// theirs.
			w.e.requestStop()
			w.e.truncated.Add(w.fr.drain() + int64(len(forked)) + 1)
			w.fr.release()
			return
		}
		if len(forked) == 0 {
			// Path ended (completed, errored, or pruned inside step).
			w.drop(st)
			w.fr.release()
			return
		}
		// Continue with the deepest continuation (step returns it last),
		// publish the rest for stealing.
		st = forked[len(forked)-1]
		w.e.explored.Add(1)
		w.e.truncated.Add(w.fr.put(w.id, forked[:len(forked)-1]))
	}
}

// countInstr counts one interpreted instruction, flushing the batch to
// the engine-wide counter on stride boundaries.
func (w *worker) countInstr() {
	w.localInstrs++
	if w.localInstrs >= instrFlushStride {
		w.flushInstrs()
	}
}

func (w *worker) flushInstrs() {
	if w.localInstrs > 0 {
		w.e.instrs.Add(w.localInstrs)
		w.localInstrs = 0
	}
}

// coverBlock marks f's block covered as execution enters it. The
// lastBlock memo keeps the per-instruction cost at one pointer compare.
func (w *worker) coverBlock(f *Frame) {
	if f.Block == w.lastBlock {
		return
	}
	w.lastBlock = f.Block
	if f.lay.cov.cover(f.Block) {
		w.e.covered.Add(1)
	}
}

// overLimit checks the global stop conditions at batch granularity:
// another worker requested a stop, the instruction budget is spent, or
// the wall-clock deadline passed.
func (w *worker) overLimit() bool {
	if w.e.stopped.Load() {
		return true
	}
	if w.localInstrs == 0 { // just flushed: global count is fresh
		if max := w.e.opts.MaxInstrs; max > 0 && w.e.instrs.Load() >= max {
			w.e.timedOut.Store(true)
			return true
		}
		if !w.e.deadline.IsZero() && time.Now().After(w.e.deadline) {
			w.e.timedOut.Store(true)
			return true
		}
	}
	return false
}

// fork clones st for the other side of a branch.
func (w *worker) fork(st *State) *State {
	w.e.forks.Add(1)
	return st.clone(w.e.nextState.Add(1), w)
}

// reportBug records a defect with a concretized input from the model;
// with no model (the query that should have found one was undecided) it
// records none.
// Deduplication here is per-worker at site granularity (kind, message
// AND location): every distinct site survives until the cross-worker
// merge, where mergeBugs collapses to one report per (kind, message)
// by picking the smallest location. Deduplicating on (kind, message)
// already here would keep whichever site this worker's schedule
// reached first — and make the surviving report depend on the worker
// count.
func (w *worker) reportBug(st *State, kind BugKind, msg string, model expr.Model) {
	bug := Bug{Kind: kind, Msg: msg, Where: st.Where()}
	if model != nil {
		bug.Input = make([]byte, len(w.e.inputVars))
		for i, v := range w.e.inputVars {
			bug.Input[i] = byte(model.Value(v))
		}
	}
	for _, b := range w.bugs {
		if b.Kind == bug.Kind && b.Msg == bug.Msg && b.Where == bug.Where {
			return
		}
	}
	w.bugs = append(w.bugs, bug)
}

// checkAssignBudget flushes this worker's solver-assignment count into
// the engine total after a query and requests a stop once the
// MaxAssignments budget is spent. Queries are the enforcement boundary:
// assignments accrue thousands-per-instruction inside the solver, far
// below the instruction-flush stride overLimit polls at, so a
// stride-based check could miss the whole budget inside one hot query
// burst. Serial runs stop at the same query on every machine.
func (w *worker) checkAssignBudget() {
	max := w.e.opts.MaxAssignments
	if max <= 0 {
		return
	}
	if d := w.sol.Stats.Assignments - w.lastAssigns; d != 0 {
		w.e.assigns.Add(d)
		w.lastAssigns = w.sol.Stats.Assignments
	}
	if w.e.assigns.Load() >= max {
		w.e.timedOut.Store(true)
		w.e.requestStop()
	}
}

// satP maps a partitioned solver query onto the three-valued result.
func (w *worker) satP(p *solver.Partition) (satResult, expr.Model) {
	defer w.checkAssignBudget()
	ok, model, err := w.sol.SatPartition(p)
	if err != nil {
		return satUnknown, nil
	}
	if ok {
		return satYes, model
	}
	return satNo, nil
}
