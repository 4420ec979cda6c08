package passes

import "overify/internal/ir"

// IfConvert replaces conditional branches over side-effect-free code with
// speculative straight-line code and select instructions — the transform
// that produces the paper's Listing 2: wc's loop body with every branch
// removed. GCC/LLVM perform it only when the speculated work is cheaper
// than a branch (a handful of instructions); under -OVERIFY "this
// simplification is pursued more aggressively, because the cost of a
// branch is higher" (§3) — each removed branch halves the number of
// paths a symbolic executor must explore through the region. That holds
// only where the select feeds no later fork: when a branch that stays
// forks on its value anyway, the conversion removes no path and hands
// the solver an ite chain to search at that branch (nl's newline test
// feeding `if (at_start)` on the next iteration). Under a cost model
// with KeepDeferredForks such a branch stays (defersFork); Listing 2
// still loses every branch whose select feeds no later fork.
//
// Patterns handled (A's terminator is condbr(c, T, F)):
//
//	diamond:  T and F are distinct single-pred blocks, both pure, both
//	          jumping to the same J.
//	triangle: T is pure and single-pred with unique successor F (or
//	          symmetrically F jumps to T).
//
// Phi nodes in the join block become selects on c.
// Converting a branch removes blocks and edges: preserves nothing.
func IfConvert() Pass {
	return funcPass{name: "ifconvert", preserves: NoAnalyses, run: ifConvertFunc}
}

func ifConvertFunc(f *ir.Function, cx *Context) bool {
	defer dumpOnPanic("ifconvert", f)
	defer cx.scratch().dropUses()
	changed := false
	for rounds := 0; rounds < 100; rounds++ {
		if !ifConvertOne(f, cx) {
			break
		}
		changed = true
	}
	return changed
}

// speculable reports whether a block's non-terminator instructions can
// be executed unconditionally, and their cost.
func speculable(b *ir.Block) (int, bool) {
	n := 0
	for _, in := range b.Instrs {
		if in.IsTerminator() {
			continue
		}
		if in.Op == ir.OpPhi {
			return 0, false // handled only in the join block
		}
		if !isPure(in) {
			return 0, false
		}
		n++
	}
	return n, true
}

func singlePred(preds ir.PredTable, b *ir.Block, p *ir.Block) bool {
	ps := preds.Of(b)
	return len(ps) == 1 && ps[0] == p
}

// site is a convertible branch: A's condbr(c, T, F) over a diamond or a
// triangle. then and els are the blocks speculated into A, each nil
// where its edge of A goes straight to join.
type site struct {
	a, then, els, join *ir.Block
}

// siteAt reports the site a's conditional branch heads, if its shape is
// a diamond or a triangle and its speculated blocks fit budget. It is
// the one shape test: the conversion and the deferred-fork check both
// ask it.
func siteAt(preds ir.PredTable, a *ir.Block, budget int) (site, bool) {
	t := a.Term()
	if t == nil || t.Op != ir.OpCondBr {
		return site{}, false
	}
	tb, fb := t.Succs[0], t.Succs[1]
	if tb == fb {
		return site{}, false
	}
	// side reports b's unique successor when b is a single-pred block of
	// a that ends in an unconditional branch.
	side := func(b *ir.Block) *ir.Block {
		if !singlePred(preds, b, a) {
			return nil
		}
		if bt := b.Term(); bt != nil && bt.Op == ir.OpBr {
			return bt.Succs[0]
		}
		return nil
	}
	tNext, fNext := side(tb), side(fb)
	if tNext != nil && tNext == fNext && tNext != a && tNext != tb && tNext != fb {
		ct, okT := speculable(tb)
		cf, okF := speculable(fb)
		if okT && okF && ct+cf <= budget {
			return site{a: a, then: tb, els: fb, join: tNext}, true
		}
	}
	if tNext == fb && fb != a {
		if ct, ok := speculable(tb); ok && ct <= budget {
			return site{a: a, then: tb, join: fb}, true
		}
	}
	if fNext == tb && tb != a {
		if cf, ok := speculable(fb); ok && cf <= budget {
			return site{a: a, els: fb, join: tb}, true
		}
	}
	return site{}, false
}

// edge returns the block a join phi names for one side of s: the
// speculated block, or A where the side is a direct edge.
func (s site) edge(b *ir.Block) *ir.Block {
	if b == nil {
		return s.a
	}
	return b
}

// merges reports whether phi, a phi of s.join, becomes a select when s
// is converted: its two sides bring different values.
func (s site) merges(phi *ir.Instr) bool {
	vt, vf := phi.PhiIncoming(s.edge(s.then)), phi.PhiIncoming(s.edge(s.els))
	return (vt != nil || vf != nil) && !sameValue(vt, vf)
}

func ifConvertOne(f *ir.Function, cx *Context) bool {
	preds := cx.preds(f)
	budget := cx.Cost.SpeculationBudget
	usesFilled := false
	for _, a := range f.Blocks {
		t := a.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		cond := t.Args[0]
		tb, fb := t.Succs[0], t.Succs[1]
		if tb == fb {
			continue
		}

		if s, ok := siteAt(preds, a, budget); ok {
			if cx.Cost.KeepDeferredForks {
				if !usesFilled {
					cx.scratch().fillUses(f)
					usesFilled = true
				}
				if cx.defersFork(preds, s, budget) {
					continue
				}
			}
			s.convert(f, cond)
			cx.Stats.BranchesConverted++
			return true
		}

		// Branch folding to a common destination (LLVM's
		// FoldBranchToCommonDest): short-circuit cascades produce
		//   A: br cA, J, B          B: br cB, J, C
		// which merges into A: br (cA|cB), J, C — and symmetrically for
		// the && shape. This is what reduces an || chain to arithmetic.
		if foldCommonDest(f, preds, a, cond, tb, fb, budget, cx) {
			cx.Stats.BranchesConverted++
			return true
		}
	}
	return false
}

// defersFork reports whether converting s would only move its fork to a
// later branch. It follows each phi of s.join that would take a select
// forward through pure instructions and phis. A conditional branch on
// the value counts once the walk has passed a further phi, so a select
// the next branch reads directly still converts: that merges two forks
// into one (rot13rounds' `&&`, tac's `||`). It counts only if the branch
// stays, that is, heads no site of its own; s's own branch is one, so a
// loop that feeds its select back into its branch (cksum's bit loop,
// wc's Listing 2) still sheds a fork each iteration. The caller has
// filled the scratch's use table for this CFG.
func (cx *Context) defersFork(preds ir.PredTable, s site, budget int) bool {
	sc := cx.scratch()
	sc.walkEpoch++
	stack := sc.walk[:0]
	defer func() { sc.walk = stack[:0] }()
	// visit pushes in unless the walk has reached it already with as
	// much: a visit after a phi covers one before it.
	visit := func(in *ir.Instr, pastPhi bool) {
		mark := sc.walkEpoch << 1
		if pastPhi {
			mark |= 1
		}
		if seen := sc.seen[in.ID]; seen == sc.walkEpoch<<1|1 || seen == mark {
			return
		}
		sc.seen[in.ID] = mark
		stack = append(stack, walkItem{in, pastPhi})
	}
	for _, phi := range s.join.Phis() {
		if s.merges(phi) {
			for _, u := range sc.usersOf(phi) {
				visit(u, false)
			}
		}
	}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		in, pastPhi := it.in, it.pastPhi
		switch {
		case in.Op == ir.OpCondBr:
			if pastPhi {
				if _, convertible := siteAt(preds, in.Blk, budget); !convertible {
					return true
				}
			}
			continue
		case in.Op == ir.OpPhi:
			pastPhi = true
		case !isPure(in):
			continue
		}
		for _, u := range sc.usersOf(in) {
			visit(u, pastPhi)
		}
	}
	return false
}

func foldCommonDest(f *ir.Function, preds ir.PredTable,
	a *ir.Block, cond ir.Value, tb, fb *ir.Block, budget int, cx *Context) bool {
	try := func(j, b *ir.Block, orShape bool) bool {
		if !singlePred(preds, b, a) || b == j || j == a {
			return false
		}
		bt := b.Term()
		if bt == nil || bt.Op != ir.OpCondBr {
			return false
		}
		var other *ir.Block
		if orShape {
			// A: br cA, J, B ; B: br cB, J, other
			if bt.Succs[0] != j {
				return false
			}
			other = bt.Succs[1]
		} else {
			// A: br cA, B, J ; B: br cB, other, J
			if bt.Succs[1] != j {
				return false
			}
			other = bt.Succs[0]
		}
		if other == a || other == b {
			return false
		}
		cost, ok := speculable(b)
		if !ok || cost > budget {
			return false
		}
		cB := bt.Args[0]

		// Splice B's body into A, build the merged condition, rewire.
		a.Instrs = a.Instrs[:len(a.Instrs)-1] // drop A's condbr
		moveBody(a, b)
		bd := ir.NewBuilder(f, a)
		var merged ir.Value
		if orShape {
			merged = bd.Bin(ir.OpOr, cond, cB)
		} else {
			merged = bd.Bin(ir.OpAnd, cond, cB)
		}
		// J's phis: the edge from A now covers both old edges; on it the
		// value is vA when cA decided (true for or, false for and), else
		// vB.
		for _, phi := range j.Phis() {
			vA := phi.PhiIncoming(a)
			vB := phi.PhiIncoming(b)
			phi.RemovePhiIncoming(b)
			if vA == nil && vB == nil {
				continue
			}
			var repl ir.Value
			switch {
			case vA == nil:
				repl = vB
			case vB == nil || sameValue(vA, vB):
				repl = vA
			case orShape:
				repl = bd.Select(cond, vA, vB)
			default:
				repl = bd.Select(cond, vB, vA)
			}
			phi.SetPhiIncoming(a, repl)
		}
		// other's phis: the edge previously from B now comes from A.
		for _, phi := range other.Phis() {
			vB := phi.PhiIncoming(b)
			phi.RemovePhiIncoming(b)
			if vB != nil && phi.PhiIncoming(a) == nil {
				phi.SetPhiIncoming(a, vB)
			}
		}
		if orShape {
			bd.CondBr(merged, j, other)
		} else {
			bd.CondBr(merged, other, j)
		}
		f.RemoveBlock(b)
		return true
	}
	if try(tb, fb, true) {
		return true
	}
	return try(fb, tb, false)
}

// moveBody appends b's non-terminator instructions to a (before a's
// terminator position — the caller has already removed a's terminator).
func moveBody(a, b *ir.Block) {
	for _, in := range b.Instrs {
		if in.IsTerminator() {
			continue
		}
		in.Blk = a
		a.Instrs = append(a.Instrs, in)
	}
	b.Instrs = nil
}

// convert removes A's branch: it splices the speculated blocks into A,
// turns each join phi's two incoming values into a select on cond, and
// branches to the join.
func (s site) convert(f *ir.Function, cond ir.Value) {
	a := s.a
	a.Instrs = a.Instrs[:len(a.Instrs)-1]
	for _, b := range [2]*ir.Block{s.then, s.els} {
		if b != nil {
			moveBody(a, b)
		}
	}
	bd := ir.NewBuilder(f, a)
	for _, phi := range s.join.Phis() {
		vt := phi.PhiIncoming(s.edge(s.then))
		vf := phi.PhiIncoming(s.edge(s.els))
		for _, b := range [2]*ir.Block{s.then, s.els} {
			if b != nil {
				phi.RemovePhiIncoming(b)
			}
		}
		var repl ir.Value
		switch {
		case vt == nil && vf == nil:
			continue
		case sameValue(vt, vf):
			repl = vt
		default:
			repl = bd.Select(cond, vt, vf)
		}
		phi.SetPhiIncoming(a, repl)
	}
	bd.Br(s.join)
	for _, b := range [2]*ir.Block{s.then, s.els} {
		if b != nil {
			f.RemoveBlock(b)
		}
	}
}
