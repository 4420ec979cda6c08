package passes

import (
	"slices"

	"overify/internal/ir"
)

// Unroll fully unrolls loops whose trip count is a compile-time constant,
// by repeatedly peeling the first iteration and letting constant folding
// collapse the peeled copy. Unrolling removes the loop's back edge — for
// a symbolic executor that converts "fork at the header every iteration"
// into straight-line code (paper §4: -OSYMBEX "removes loops from the
// program whenever possible, even if this increases the program size").
// Peeling clones blocks and rewires edges: preserves nothing. Each
// peel round invalidates so the next round's discovery is fresh.
func Unroll() Pass {
	return funcPass{name: "unroll", preserves: NoAnalyses, run: unrollFunc}
}

// -O3's budgets, the only level that runs unroll; Table 2's ablation
// row reads the same with these as with larger ones.
const (
	unrollMaxTrip   = 8   // largest constant trip count fully unrolled
	unrollGrowthCap = 256 // instructions unrolling may add to one function
)

func unrollFunc(f *ir.Function, cx *Context) bool {
	defer dumpOnPanic("unroll", f)
	changed := false
	budget := unrollGrowthCap
	for rounds := 0; rounds < 4*unrollMaxTrip+16; rounds++ {
		dt := cx.Dom(f)
		loops := cx.Loops(f)
		peeled := false
		// Innermost first.
		for i := len(loops) - 1; i >= 0; i-- {
			l := loops[i]
			if l.Header == f.Entry() {
				continue
			}
			trip, ok := constTripCount(cx, f, l)
			if !ok || trip > unrollMaxTrip {
				continue
			}
			growth := int(trip) * l.NumInstrs()
			if growth > budget {
				continue
			}
			if !peelOnce(cx, f, l, dt) {
				continue
			}
			budget -= l.NumInstrs()
			cx.Stats.LoopsPeeled++
			if trip == 0 {
				// The peeled copy's header test fails immediately; the
				// loop is gone after cleanup.
				cx.Stats.LoopsUnrolled++
			}
			peeled = true
			changed = true
			break
		}
		if !peeled {
			break
		}
		// The peel cloned blocks and the cleanup below rewrites the CFG:
		// the next round must rediscover dominance and loops.
		cx.Invalidate(f, NoAnalyses)
		// Fold the peeled iteration so the next trip count is visible.
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

// constTripCount recognizes the canonical counted loop:
//
//	header: iv = phi [init(const) from preheader, next from latch]
//	        cond = icmp iv, limit(const) ; condbr cond, inside, outside
//	latch:  next = iv +/- step(const)
//
// and returns how many times the body executes.
func constTripCount(cx *Context, f *ir.Function, l *ir.Loop) (int64, bool) {
	preds := cx.preds(f)
	ph := l.Preheader(preds)
	if ph == nil {
		// A preheader is created during peeling; for counting purposes,
		// find the unique outside predecessor if there is one.
		var outside []*ir.Block
		for _, p := range preds.Of(l.Header) {
			if !l.Blocks[p] {
				outside = append(outside, p)
			}
		}
		if len(outside) != 1 {
			return 0, false
		}
		ph = outside[0]
	}
	t := l.Header.Term()
	if t == nil || t.Op != ir.OpCondBr {
		return 0, false
	}
	cmp, ok := t.Args[0].(*ir.Instr)
	if !ok || !cmp.Op.IsCmp() || cmp.Blk != l.Header {
		return 0, false
	}
	stayOnTrue := l.Blocks[t.Succs[0]]
	if stayOnTrue == l.Blocks[t.Succs[1]] {
		return 0, false // both in or both out
	}

	// Identify iv and limit.
	iv, okIv := cmp.Args[0].(*ir.Instr)
	limit, okLim := cmp.Args[1].(*ir.Const)
	cmpOp := cmp.Op
	if !okIv || !okLim {
		// Try the swapped orientation: limit on the left.
		limit, okLim = cmp.Args[0].(*ir.Const)
		iv, okIv = cmp.Args[1].(*ir.Instr)
		if !okIv || !okLim {
			return 0, false
		}
		cmpOp = swapCmp(cmpOp)
	}
	if iv.Op != ir.OpPhi || iv.Blk != l.Header || len(iv.Incoming) != 2 {
		return 0, false
	}
	init, okInit := iv.PhiIncoming(ph).(*ir.Const)
	if !okInit {
		return 0, false
	}
	var next ir.Value
	for i, ib := range iv.Incoming {
		if ib != ph {
			next = iv.Args[i]
		}
	}
	step, okStep := next.(*ir.Instr)
	if !okStep || (step.Op != ir.OpAdd && step.Op != ir.OpSub) || !l.Blocks[step.Blk] {
		return 0, false
	}
	var stepC *ir.Const
	if step.Args[0] == iv {
		stepC, okStep = step.Args[1].(*ir.Const)
	} else if step.Args[1] == iv && step.Op == ir.OpAdd {
		stepC, okStep = step.Args[0].(*ir.Const)
	} else {
		return 0, false
	}
	if !okStep || stepC.IsZero() {
		return 0, false
	}

	// Simulate the header test numerically.
	bits := limit.Typ.Bits
	v := init.Val
	var count int64
	const maxSim = 1 << 16
	for ir.EvalCmp(cmpOp, bits, v, limit.Val) == stayOnTrue {
		count++
		if count > maxSim {
			return 0, false
		}
		if step.Op == ir.OpAdd {
			v = ir.Mask(bits, v+stepC.Val)
		} else {
			v = ir.Mask(bits, v-stepC.Val)
		}
		if v == init.Val {
			return 0, false // wrapped a full cycle: not a counted loop
		}
	}
	return count, true
}

func swapCmp(op ir.Op) ir.Op {
	switch op {
	case ir.OpULt:
		return ir.OpUGt
	case ir.OpULe:
		return ir.OpUGe
	case ir.OpUGt:
		return ir.OpULt
	case ir.OpUGe:
		return ir.OpULe
	case ir.OpSLt:
		return ir.OpSGt
	case ir.OpSLe:
		return ir.OpSGe
	case ir.OpSGt:
		return ir.OpSLt
	case ir.OpSGe:
		return ir.OpSLe
	}
	return op // eq/ne symmetric
}

// peelOnce executes one loop iteration before the loop: the body is
// cloned, the preheader enters the clone, and the clone's back edges
// land on the original header.
func peelOnce(cx *Context, f *ir.Function, l *ir.Loop, dt *ir.DomTree) bool {
	if !lcssa(cx, f, l, dt) {
		return false
	}
	ph := ensurePreheader(cx, f, l)
	if ph == nil {
		return false
	}
	region := l.BlocksInRPO(dt)
	cm := &cx.scratch().clones
	ir.CloneBlocks(f, region, cm)
	cloneHeader := cm.Block(l.Header)

	// Preheader enters the peeled copy.
	phTerm := ph.Term()
	for i, s := range phTerm.Succs {
		if s == l.Header {
			phTerm.Succs[i] = cloneHeader
		}
	}

	// Cloned back edges re-enter the original loop; the original header's
	// phis switch their initial values to the peeled iteration's results.
	for _, latch := range l.Latches {
		cloneLatch := cm.Block(latch)
		t := cloneLatch.Term()
		for i, s := range t.Succs {
			if s == cloneHeader {
				t.Succs[i] = l.Header
			}
		}
		for _, phi := range l.Header.Phis() {
			v := phi.PhiIncoming(latch)
			phi.SetPhiIncoming(cloneLatch, cm.Lookup(v))
		}
	}
	for _, phi := range l.Header.Phis() {
		phi.RemovePhiIncoming(ph)
	}

	// Exit-block phis gain edges from the peeled copy. This must happen
	// while cm's phi mappings are still live instructions.
	for _, e := range l.Exits {
		cloneFrom := cm.Block(e.From)
		for _, phi := range e.To.Phis() {
			v := phi.PhiIncoming(e.From)
			if v != nil {
				phi.SetPhiIncoming(cloneFrom, cm.Lookup(v))
			}
		}
	}

	// The peeled header executes exactly once (preds: preheader only), so
	// its phis collapse to their preheader values. A copy: the loop
	// removes phis from the block, which Phis() is the prefix of.
	for _, phi := range slices.Clone(cloneHeader.Phis()) {
		v := phi.PhiIncoming(ph)
		ir.ReplaceUses(f, phi, v)
		cloneHeader.Remove(phi)
	}
	return true
}
