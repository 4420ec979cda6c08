package passes

import (
	"overify/internal/ir"
)

// Check-guided loop summarization: the cksum pattern. After slicing, a
// loop whose body is nothing but its own termination skeleton (the
// induction phi, the step, the exit compare) computes nothing any kept
// check can observe — but the unroller would still expand it and the
// engine would still walk every iteration. Replace the whole loop with
// its summary instead: jump from the preheader straight to the exit.
//
// No havoc values are needed: the only live-outs a loop may have here
// are none at all (any in-loop definition used outside the loop
// disqualifies it), and the exit block's phis take their loop-invariant
// incoming values, so the summary is exact, not an over-approximation.
//
// Deleting a loop is only sound if the original provably terminated on
// every path — otherwise the slice would finish paths the baseline
// never completes. We require a constant trip count (the same proof the
// unroller trusts), a unique exit edge, and a body free of side
// effects, calls, and memory traffic.
func LoopSummaryPass() Pass { return loopSummaryPass{} }

type loopSummaryPass struct{}

func (loopSummaryPass) Name() string           { return "loopsummary" }
func (loopSummaryPass) Preserves() AnalysisSet { return NoAnalyses }

func (loopSummaryPass) Run(m *ir.Module, cx *Context) bool {
	changed := false
	for _, f := range m.Funcs {
		if f.IsDeclaration() {
			continue
		}
		for summarizeOneLoop(f, cx) {
			changed = true
		}
	}
	return changed
}

// summarizeOneLoop deletes at most one summarizable loop of f,
// recomputing analyses afterwards; the caller loops to a fixpoint.
func summarizeOneLoop(f *ir.Function, cx *Context) bool {
	defer dumpOnPanic("loopsummary", f)
	rel := cx.Relevance(f.Mod)
	loops := cx.Loops(f)
	for _, l := range loops {
		if !summarizable(f, l, rel) {
			continue
		}
		if _, ok := constTripCount(cx, f, l); !ok {
			continue // termination not provable; keep the loop
		}
		ph := l.Preheader(cx.preds(f))
		if ph == nil {
			continue
		}
		exit := l.Exits[0]
		// Capture the exit block's incoming values along the exit edge
		// before rewiring; the summarizability scan proved they are
		// loop-invariant.
		exitPhis := exit.To.Phis()
		vals := make([]ir.Value, len(exitPhis))
		for i, phi := range exitPhis {
			vals[i] = phi.PhiIncoming(exit.From)
		}
		ir.RedirectBranch(ph, l.Header, exit.To)
		for i, phi := range exitPhis {
			if vals[i] != nil {
				phi.SetPhiIncoming(ph, vals[i])
			}
		}
		cx.Invalidate(f, NoAnalyses)
		cx.Stats.DeadBlocks += ir.RemoveUnreachable(f)
		cx.Stats.LoopsSummarized++
		return true
	}
	return false
}

// summarizable vets l's shape: one exit edge, a body containing only
// the termination skeleton (every non-skeleton instruction must be
// pure and irrelevant), and no value flowing out of the loop.
func summarizable(f *ir.Function, l *ir.Loop, rel *Relevance) bool {
	if len(l.Exits) != 1 {
		return false
	}
	exit := l.Exits[0]
	// The backward closure of the exit branch inside the loop is the
	// termination skeleton the summary deletes along with the body.
	skeleton := make(map[*ir.Instr]bool)
	var grow func(in *ir.Instr)
	grow = func(in *ir.Instr) {
		if in == nil || skeleton[in] || in.Blk == nil || !l.Blocks[in.Blk] {
			return
		}
		skeleton[in] = true
		for _, a := range in.Args {
			if ai, ok := a.(*ir.Instr); ok {
				grow(ai)
			}
		}
	}
	grow(exit.From.Term())

	for b := range l.Blocks {
		t := b.Term()
		if t == nil {
			return false
		}
		if b == exit.From {
			if t.Op != ir.OpCondBr {
				return false
			}
		} else if t.Op != ir.OpBr {
			return false // a second conditional branch is not skeleton
		}
		for _, in := range b.Instrs {
			if in.IsTerminator() {
				continue
			}
			if skeleton[in] {
				// Skeleton members must still be side-effect free: a
				// memory-based counter (pre-mem2reg) cannot be deleted.
				if !isPure(in) && in.Op != ir.OpPhi {
					return false
				}
				continue
			}
			if !isPure(in) && in.Op != ir.OpPhi {
				return false
			}
			if rel.Relevant(in) {
				return false // relevant non-skeleton work lives here
			}
		}
	}
	// No definition may escape the loop — neither through ordinary uses
	// nor through exit-block phis.
	for _, b := range f.Blocks {
		if l.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if definedInLoop(l, a) {
					return false
				}
			}
		}
	}
	return true
}
