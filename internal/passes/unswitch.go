package passes

import "overify/internal/ir"

// Unswitch hoists loop-invariant conditional branches out of loops by
// cloning the loop: the condition is tested once in the preheader, and
// each copy of the loop runs with the branch resolved. This is the
// paper's motivating -O3 example (§1): unswitching wc's "any != 0" test
// turns O(3^n) explored paths into O(2^n), because the symbolic executor
// no longer re-forks on the invariant condition at every iteration.
//
// The price is code growth, which -O3 bounds with the budgets below.
// -OVERIFY does not run unswitch: it removes the branches it can by
// if-conversion instead, which costs no clone. Unswitching clones the
// loop: preserves nothing. Each successful round invalidates so the
// next round's discovery is fresh.
func Unswitch() Pass {
	return funcPass{name: "unswitch", preserves: NoAnalyses, run: unswitchFunc}
}

// -O3's budgets, the only level that runs unswitch.
const (
	unswitchMaxSize   = 64 // largest loop body (instructions) cloned by one step
	unswitchMaxClones = 2  // unswitching steps per function
)

func unswitchFunc(f *ir.Function, cx *Context) bool {
	defer dumpOnPanic("unswitch", f)
	changed := false
	for round := 0; round < unswitchMaxClones; round++ {
		if !unswitchOne(f, cx) {
			break
		}
		changed = true
		// The clone and the cleanup below rewrite the CFG: rediscover
		// before the next round.
		cx.Invalidate(f, NoAnalyses)
		// Clean up the specialized copies before looking again, so the
		// size estimate for the next round sees the folded loops.
		cxLocal := &Context{Cost: cx.Cost, scr: cx.scratch()}
		simplifyFunc(f, cxLocal)
		simplifyCFGFunc(f, cxLocal)
		dceFunc(f, cxLocal)
		cx.Stats.InstrsFolded += cxLocal.Stats.InstrsFolded
		cx.Stats.DeadInstrs += cxLocal.Stats.DeadInstrs
		cx.Stats.DeadBlocks += cxLocal.Stats.DeadBlocks
		cx.Stats.BlocksMerged += cxLocal.Stats.BlocksMerged
	}
	return changed
}

func unswitchOne(f *ir.Function, cx *Context) bool {
	dt := cx.Dom(f)
	loops := cx.Loops(f)
	// Innermost loops first: their bodies are smallest, and unswitching
	// an inner loop often unlocks the outer one.
	for i := len(loops) - 1; i >= 0; i-- {
		l := loops[i]
		if l.Header == f.Entry() {
			continue
		}
		if l.NumInstrs() > unswitchMaxSize {
			continue
		}
		br := findInvariantBranch(l)
		if br == nil {
			continue
		}
		if doUnswitch(cx, f, l, dt, br) {
			cx.Stats.LoopsUnswitched++
			return true
		}
	}
	return false
}

// findInvariantBranch returns a conditional branch inside l whose
// condition is loop-invariant: defined outside the loop, or a pure
// in-loop computation whose chain bottoms out in invariant values (the
// canonical `if (mode)` shape computes `icmp mode, 0` inside the body;
// doUnswitch hoists such chains to the preheader).
func findInvariantBranch(l *ir.Loop) *ir.Instr {
	for _, b := range l.BlocksSorted() {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		cond := t.Args[0]
		if _, isConst := cond.(*ir.Const); isConst {
			continue
		}
		if !invariantValue(l, cond, 0) {
			continue
		}
		// Both successors identical is trivially foldable elsewhere.
		if t.Succs[0] == t.Succs[1] {
			continue
		}
		return t
	}
	return nil
}

// invariantValue reports whether v is loop-invariant, looking through
// pure in-loop computation chains up to a small depth.
func invariantValue(l *ir.Loop, v ir.Value, depth int) bool {
	if !definedInLoop(l, v) {
		return true
	}
	if depth > 4 {
		return false
	}
	in := v.(*ir.Instr)
	if !isPure(in) || in.Op == ir.OpPhi {
		return false
	}
	for _, a := range in.Args {
		if !invariantValue(l, a, depth+1) {
			return false
		}
	}
	return true
}

// hoistInvariantChain moves v's pure in-loop computation chain to the
// preheader (before its terminator), bottom-up.
func hoistInvariantChain(l *ir.Loop, ph *ir.Block, v ir.Value) {
	in, ok := v.(*ir.Instr)
	if !ok || in.Blk == nil || !l.Blocks[in.Blk] {
		return
	}
	for _, a := range in.Args {
		hoistInvariantChain(l, ph, a)
	}
	in.Blk.Remove(in)
	in.Blk = ph
	ph.InsertBefore(in, ph.Term())
}

func doUnswitch(cx *Context, f *ir.Function, l *ir.Loop, dt *ir.DomTree, br *ir.Instr) bool {
	// Loop-closed SSA first: cloning adds exit edges, which is only safe
	// when outside uses go through exit phis.
	if !lcssa(cx, f, l, dt) {
		return false
	}
	ph := ensurePreheader(cx, f, l)
	if ph == nil {
		return false
	}
	cond := br.Args[0]
	// The condition may be a pure chain computed inside the loop; hoist
	// it so the preheader's new branch can use it.
	hoistInvariantChain(l, ph, cond)
	region := l.BlocksInRPO(dt)

	cm := &cx.scratch().clones
	ir.CloneBlocks(f, region, cm)

	// Exit-block phis gain edges from the cloned exit predecessors.
	for _, e := range l.Exits {
		cloneFrom := cm.Block(e.From)
		for _, phi := range e.To.Phis() {
			v := phi.PhiIncoming(e.From)
			if v != nil {
				phi.SetPhiIncoming(cloneFrom, cm.Lookup(v))
			}
		}
	}

	// The preheader now tests the invariant condition once.
	phTerm := ph.Term()
	phTerm.Op = ir.OpCondBr
	phTerm.Args = []ir.Value{cond}
	phTerm.Succs = []*ir.Block{l.Header, cm.Block(l.Header)}

	// Specialize: in the original loop the condition is true; in the
	// clone it is false. The unswitched branches then fold.
	origSet := l.Blocks
	cloneSet := make(map[*ir.Block]bool, len(region))
	for _, b := range region {
		cloneSet[cm.Block(b)] = true
	}
	replaceUsesInBlocks(origSet, cond, ir.Bool(true))
	replaceUsesInBlocks(cloneSet, cond, ir.Bool(false))
	return true
}
