package symex

import (
	"time"

	"overify/internal/expr"
	"overify/internal/ir"
	"overify/internal/solver"
)

// limitStride is how many instructions a worker runs between checks of
// the instruction budget and the deadline; the checks fall when its
// count since it started is a multiple of the stride.
const limitStride = 1024

// worker explores one engine's states on the calling goroutine: a
// solver over the engine's query cache, the bugs it found (merged after
// the run), and the instructions it ran, folded into the engine's total
// when it stops.
type worker struct {
	e   *Engine
	B   *expr.Builder
	sol *solver.Solver

	bugs      []Bug
	instrs    int64      // instructions run since the worker started
	lastBlock *ir.Block  // last block marked covered
	phiVals   []SymVal   // jump's batch of phi values, reused per jump
	free      [][]*Frame // returned frames by function, for the next call to reuse
}

// stack is the pending states. The worker pops the newest, so
// exploration is depth-first and children run right after the parent
// whose constraint prefix they share.
type stack struct {
	states  []*State
	max     int // queued states beyond this many evict the oldest
	maxLive int // high-water mark of queued states plus the one held
}

// push queues states while held states are being run and returns how
// many of the oldest it evicted to stay under the cap; the caller
// counts those as truncated.
func (s *stack) push(states []*State, held int) (evicted int64) {
	if len(states) == 0 {
		return 0
	}
	s.states = append(s.states, states...)
	s.maxLive = max(s.maxLive, len(s.states)+held)
	if n := len(s.states) - s.max; n > 0 {
		clear(s.states[:n])
		s.states = s.states[n:]
		evicted = int64(n)
	}
	return evicted
}

// pop removes and returns the newest state, or nil.
func (s *stack) pop() *State {
	n := len(s.states)
	if n == 0 {
		return nil
	}
	st := s.states[n-1]
	s.states[n-1] = nil
	s.states = s.states[:n-1]
	return st
}

// drain empties the stack (a limit fired) and returns how many states
// it discarded, for truncation accounting.
func (s *stack) drain() int64 {
	n := len(s.states)
	s.states = nil
	return int64(n)
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

// run pops states until the stack is empty or a limit fired,
// exploring each one's subtree.
func (w *worker) run(s *stack) {
	for !w.e.stopped {
		st := s.pop()
		if st == nil {
			return
		}
		w.explore(st, s)
	}
}

// explore drives one state to the end of its path, following the
// deepest continuation of each fork immediately (depth-first keeps the
// constraint prefix hot) and queueing the rest.
func (w *worker) explore(st *State, s *stack) {
	for {
		w.e.explored++
		stop, forked := w.step(st)
		if stop {
			// A limit fired: everything queued is truncated, and so is
			// the state this worker was holding.
			w.e.stopped = true
			w.e.truncated += s.drain() + 1
			return
		}
		if len(forked) == 0 {
			// Path ended (completed, errored, or pruned inside step).
			w.drop(st)
			return
		}
		// Continue with the deepest continuation (step returns it last).
		st = forked[len(forked)-1]
		w.e.truncated += s.push(forked[:len(forked)-1], 1)
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
		w.e.covered++
	}
}

// overLimit checks the stop conditions: a limit already fired, or, on
// stride boundaries, the instruction budget is spent or the deadline
// passed.
func (w *worker) overLimit() bool {
	if w.e.stopped {
		return true
	}
	if w.instrs%limitStride == 0 {
		if max := w.e.opts.MaxInstrs; max > 0 && w.e.instrs+w.instrs >= max {
			w.e.timedOut = true
			return true
		}
		if !w.e.deadline.IsZero() && time.Now().After(w.e.deadline) {
			w.e.timedOut = true
			return true
		}
	}
	return false
}

// finish folds the worker's instructions and solver work into the
// engine and returns its solver's stats.
func (w *worker) finish() solver.Stats {
	w.e.instrs += w.instrs
	w.instrs = 0
	w.sol.Release()
	return w.sol.Stats
}

// fork clones st for the other side of a branch.
func (w *worker) fork(st *State) *State {
	w.e.forks++
	w.e.nextState++
	return st.clone(w.e.nextState, w)
}

// reportBug records a defect with a concretized input from the model;
// with no model (the query that should have found one was undecided) it
// records none.
// Deduplication here is per-worker at site granularity (kind, message
// AND location): every distinct site survives until the merge with
// Split's bugs and other processes' reports, where mergeBugs collapses
// to one report per (kind, message) by picking the smallest location.
// Deduplicating on (kind, message) already here would keep whichever
// site this worker reached first — and make the surviving report
// depend on how the job was split.
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

// checkAssignBudget stops the run once the MaxAssignments budget,
// counted over Split's solver and this one, is spent. Queries are the
// enforcement boundary: assignments accrue thousands-per-instruction
// inside the solver, far below the stride overLimit polls at, so a
// stride-based check could miss the whole budget inside one hot query
// burst. A run stops at the same query on every machine.
func (w *worker) checkAssignBudget() {
	if max := w.e.opts.MaxAssignments; max > 0 && w.e.splitStats.Assignments+w.sol.Stats.Assignments >= max {
		w.e.timedOut = true
		w.e.stopped = true
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
