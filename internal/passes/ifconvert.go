package passes

import "overify/internal/ir"

// IfConvert replaces conditional branches over side-effect-free code with
// speculative straight-line code and select instructions — the transform
// that produces the paper's Listing 2: wc's loop body with every branch
// removed. GCC/LLVM perform it only when the speculated work is cheaper
// than a branch (a handful of instructions); under -OVERIFY "this
// simplification is pursued more aggressively, because the cost of a
// branch is higher" (§3) — each removed branch halves the number of
// paths a symbolic executor must explore through the region.
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
func speculable(b *ir.Block, cost *CostModel) (int, bool) {
	n := 0
	for _, in := range b.Instrs {
		if in.IsTerminator() {
			continue
		}
		if in.Op == ir.OpPhi {
			return 0, false // handled only in the join block
		}
		if !isPure(in) {
			// Loads may be speculated only if the model explicitly
			// allows potentially-trapping speculation.
			if in.Op == ir.OpLoad && cost.SpeculateLoads {
				n++
				continue
			}
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

func ifConvertOne(f *ir.Function, cx *Context) bool {
	preds := cx.preds(f)
	budget := cx.Cost.SpeculationBudget
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

		// Diamond.
		if singlePred(preds, tb, a) && singlePred(preds, fb, a) {
			tTerm, fTerm := tb.Term(), fb.Term()
			if tTerm != nil && fTerm != nil && tTerm.Op == ir.OpBr && fTerm.Op == ir.OpBr &&
				tTerm.Succs[0] == fTerm.Succs[0] {
				join := tTerm.Succs[0]
				if join == a || join == tb || join == fb {
					continue
				}
				ct, okT := speculable(tb, &cx.Cost)
				cf, okF := speculable(fb, &cx.Cost)
				if okT && okF && ct+cf <= budget {
					convertDiamond(f, a, tb, fb, join, cond)
					cx.Stats.BranchesConverted++
					return true
				}
			}
		}

		// Triangle with the "then" side as the speculated block.
		if singlePred(preds, tb, a) {
			tTerm := tb.Term()
			if tTerm != nil && tTerm.Op == ir.OpBr && tTerm.Succs[0] == fb && fb != a {
				if ct, ok := speculable(tb, &cx.Cost); ok && ct <= budget {
					convertTriangle(f, a, tb, fb, cond, true)
					cx.Stats.BranchesConverted++
					return true
				}
			}
		}
		// Triangle with the "else" side speculated.
		if singlePred(preds, fb, a) {
			fTerm := fb.Term()
			if fTerm != nil && fTerm.Op == ir.OpBr && fTerm.Succs[0] == tb && tb != a {
				if cf, ok := speculable(fb, &cx.Cost); ok && cf <= budget {
					convertTriangle(f, a, fb, tb, cond, false)
					cx.Stats.BranchesConverted++
					return true
				}
			}
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
		cost, ok := speculable(b, &cx.Cost)
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

func convertDiamond(f *ir.Function, a, tb, fb, join *ir.Block, cond ir.Value) {
	// Remove a's condbr, splice both sides, emit selects, then br join.
	a.Instrs = a.Instrs[:len(a.Instrs)-1]
	moveBody(a, tb)
	moveBody(a, fb)
	bd := ir.NewBuilder(f, a)
	for _, phi := range join.Phis() {
		vt := phi.PhiIncoming(tb)
		vf := phi.PhiIncoming(fb)
		phi.RemovePhiIncoming(tb)
		phi.RemovePhiIncoming(fb)
		var repl ir.Value
		if sameValue(vt, vf) {
			repl = vt
		} else {
			repl = bd.Select(cond, vt, vf)
		}
		phi.SetPhiIncoming(a, repl)
	}
	bd.Br(join)
	f.RemoveBlock(tb)
	f.RemoveBlock(fb)
	// Join phis that now have a single pred collapse later in
	// simplifycfg; nothing further needed here.
}

// convertTriangle handles A->(spec)->join and A->join directly.
// specIsThen says whether the speculated block is the true successor.
func convertTriangle(f *ir.Function, a, spec, join *ir.Block, cond ir.Value, specIsThen bool) {
	a.Instrs = a.Instrs[:len(a.Instrs)-1]
	moveBody(a, spec)
	bd := ir.NewBuilder(f, a)
	for _, phi := range join.Phis() {
		vs := phi.PhiIncoming(spec)
		va := phi.PhiIncoming(a)
		phi.RemovePhiIncoming(spec)
		var repl ir.Value
		switch {
		case vs == nil && va == nil:
			continue
		case sameValue(vs, va):
			repl = vs
		case specIsThen:
			repl = bd.Select(cond, vs, va)
		default:
			repl = bd.Select(cond, va, vs)
		}
		phi.SetPhiIncoming(a, repl)
	}
	bd.Br(join)
	f.RemoveBlock(spec)
}
