package passes

import "overify/internal/ir"

// JumpThread redirects edges whose branch outcome is already decided on
// that edge — the paper's first "Simplifying control flow" example: "a
// conditional branch jumps to a location where another condition is
// subsumed by the first one". Two cases are handled:
//
//  1. A block consisting only of phis and a condbr on one of those phis:
//     predecessors contributing a constant jump straight to the decided
//     successor. Short-circuit (&&, ||) lowering produces exactly this
//     shape after mem2reg.
//
//  2. A condbr on a condition v in a block dominated by an edge that
//     already decided v (the predecessor branched on v too): the
//     predecessor's edge is redirected past the re-test.
//
// Threading redirects edges: preserves nothing. Each successful
// thread invalidates before returning so the next round's dominance
// query (through the Context cache) is fresh.
func JumpThread() Pass {
	return funcPass{name: "jumpthread", preserves: NoAnalyses, run: jumpThreadFunc}
}

func jumpThreadFunc(f *ir.Function, cx *Context) bool {
	defer dumpOnPanic("jumpthread", f)
	changed := false
	for rounds := 0; rounds < 20; rounds++ {
		n := threadPhiConstants(f, cx)
		n += threadSameCondition(f, cx)
		if n == 0 {
			break
		}
		changed = true
	}
	if changed {
		if r := ir.RemoveUnreachable(f); r > 0 {
			cx.Stats.DeadBlocks += r
			cx.Invalidate(f, NoAnalyses)
		}
	}
	return changed
}

// blockIsPhisAndBranch reports whether b contains only phi nodes followed
// by its terminator.
func blockIsPhisAndBranch(b *ir.Block) bool {
	return b.FirstNonPhi() == len(b.Instrs)-1
}

// branchDecider recognizes branch conditions that a constant phi input
// decides: either the condition is the phi itself, or it is a
// comparison of the phi against a constant that lives in the same block
// and is used only by the branch. Returns the phi, the cmp instruction
// (nil when the condition is the phi itself), and a function mapping a
// constant incoming value to the branch direction.
func branchDecider(f *ir.Function, b *ir.Block, t *ir.Instr) (*ir.Instr, *ir.Instr, func(*ir.Const) bool) {
	if phi, ok := t.Args[0].(*ir.Instr); ok && phi.Op == ir.OpPhi && phi.Blk == b {
		if b.FirstNonPhi() == len(b.Instrs)-1 {
			return phi, nil, func(c *ir.Const) bool { return !c.IsZero() }
		}
		return nil, nil, nil
	}
	cmp, ok := t.Args[0].(*ir.Instr)
	if !ok || !cmp.Op.IsCmp() || cmp.Blk != b {
		return nil, nil, nil
	}
	// Block must be: phis..., cmp, condbr.
	if b.FirstNonPhi() != len(b.Instrs)-2 || b.Instrs[len(b.Instrs)-2] != cmp {
		return nil, nil, nil
	}
	phi, ok := cmp.Args[0].(*ir.Instr)
	rhs, okC := cmp.Args[1].(*ir.Const)
	if !ok || !okC || phi.Op != ir.OpPhi || phi.Blk != b {
		return nil, nil, nil
	}
	if ir.CountUses(f, cmp) != 1 {
		return nil, nil, nil
	}
	bits := rhs.Typ.Bits
	op := cmp.Op
	return phi, cmp, func(c *ir.Const) bool { return ir.EvalCmp(op, bits, c.Val, rhs.Val) }
}

func threadPhiConstants(f *ir.Function, cx *Context) int {
	n := 0
	dt := cx.Dom(f)
	// domOK reports whether value v is available at the end of block p.
	domOK := func(v ir.Value, p *ir.Block) bool {
		in, ok := v.(*ir.Instr)
		if !ok {
			return true
		}
		return in.Blk != nil && dt.Dominates(in.Blk, p)
	}
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr || b == f.Entry() {
			continue
		}
		phi, cmp, decide := branchDecider(f, b, t)
		if phi == nil {
			continue
		}
		// Find a predecessor whose incoming value decides the branch.
		for i, pred := range phi.Incoming {
			c, isConst := phi.Args[i].(*ir.Const)
			if !isConst {
				continue
			}
			dest := t.Succs[0]
			if !decide(c) {
				dest = t.Succs[1]
			}
			if dest == b {
				continue // self-loop; leave to loop passes
			}
			// Redirecting pred past b means b no longer dominates dest.
			// Every value defined in b must therefore have no uses
			// outside b other than dest's phi entries for the b edge
			// (which we translate below). A use anywhere else (e.g. a
			// loop body reading the header's phis) forbids threading.
			if bDefsEscape(f, b, dest) {
				continue
			}
			// Values defined in b must be translated to their value on
			// the pred edge: b's phis take their incoming value, the
			// decider cmp is a known constant, anything else aborts.
			translate := func(vb ir.Value) (ir.Value, bool) {
				inner, ok := vb.(*ir.Instr)
				if !ok || inner.Blk != b {
					return vb, true
				}
				if inner.Op == ir.OpPhi {
					return inner.PhiIncoming(pred), true
				}
				if inner == cmp {
					return ir.Bool(decide(c)), true
				}
				return nil, false
			}
			conflict := false
			for _, dphi := range dest.Phis() {
				vb, ok := translate(dphi.PhiIncoming(b))
				if !ok || !domOK(vb, pred) {
					conflict = true
					break
				}
				if existing := dphi.PhiIncoming(pred); existing != nil && !sameValue(existing, vb) {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			for _, dphi := range dest.Phis() {
				vb, _ := translate(dphi.PhiIncoming(b))
				if dphi.PhiIncoming(pred) == nil {
					dphi.SetPhiIncoming(pred, vb)
				}
			}
			// Redirect pred's edge(s) to b over to dest.
			pt := pred.Term()
			for j, s := range pt.Succs {
				if s == b {
					pt.Succs[j] = dest
				}
			}
			// b loses the pred edge.
			for _, bphi := range b.Phis() {
				bphi.RemovePhiIncoming(pred)
			}
			cx.Stats.JumpsThreaded++
			// The CFG changed: invalidate and return so the caller's next
			// dominance query recomputes before the next transformation.
			cx.Invalidate(f, NoAnalyses)
			return n + 1
		}
	}
	return n
}

// bDefsEscape reports whether any instruction defined in b is used
// outside b, except as a phi input of dest flowing along the b edge.
func bDefsEscape(f *ir.Function, b, dest *ir.Block) bool {
	defs := make(map[ir.Value]bool, len(b.Instrs))
	for _, in := range b.Instrs {
		if !ir.SameType(in.Typ, ir.Void) {
			defs[in] = true
		}
	}
	if len(defs) == 0 {
		return false
	}
	for _, ub := range f.Blocks {
		for _, u := range ub.Instrs {
			if u.Blk == b {
				continue // uses inside b are fine
			}
			for i, a := range u.Args {
				if !defs[a] {
					continue
				}
				// Allowed: dest phi entry for the edge from b.
				if u.Op == ir.OpPhi && u.Blk == dest && u.Incoming[i] == b {
					continue
				}
				return true
			}
		}
	}
	return false
}

func threadSameCondition(f *ir.Function, cx *Context) int {
	preds := cx.preds(f)
	dt := cx.Dom(f)
	domOK := func(v ir.Value, p *ir.Block) bool {
		in, ok := v.(*ir.Instr)
		if !ok {
			return true
		}
		return in.Blk != nil && dt.Dominates(in.Blk, p)
	}
	n := 0
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr || b == f.Entry() {
			continue
		}
		if !blockIsPhisAndBranch(b) || len(b.Phis()) > 0 {
			continue
		}
		cond := t.Args[0]
		for _, pred := range preds.Of(b) {
			pt := pred.Term()
			if pt.Op != ir.OpCondBr || pt.Args[0] != cond || pred == b {
				continue
			}
			// The pred's true-edge to b implies cond; false-edge implies
			// !cond.
			for j, s := range pt.Succs {
				if s != b {
					continue
				}
				dest := t.Succs[j] // j==0: cond true; j==1: cond false
				if dest == b {
					continue
				}
				conflict := false
				for _, dphi := range dest.Phis() {
					vb := dphi.PhiIncoming(b)
					if !domOK(vb, pred) {
						conflict = true
						break
					}
					if existing := dphi.PhiIncoming(pred); existing != nil && !sameValue(existing, vb) {
						conflict = true
						break
					}
				}
				if conflict {
					continue
				}
				for _, dphi := range dest.Phis() {
					vb := dphi.PhiIncoming(b)
					if dphi.PhiIncoming(pred) == nil {
						dphi.SetPhiIncoming(pred, vb)
					}
				}
				pt.Succs[j] = dest
				stillPred := false
				for _, s2 := range pt.Succs {
					if s2 == b {
						stillPred = true
					}
				}
				if !stillPred {
					for _, bphi := range b.Phis() {
						bphi.RemovePhiIncoming(pred)
					}
				}
				cx.Stats.JumpsThreaded++
				cx.Invalidate(f, NoAnalyses)
				return n + 1
			}
		}
	}
	return n
}
