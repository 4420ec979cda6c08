package passes

import (
	"slices"

	"overify/internal/ir"
)

// SimplifyCFG folds branches on constants, merges straight-line block
// chains, forwards empty blocks, and prunes unreachable code. Control-
// flow shape is the dominant verification cost (paper §2.1), so every
// removed edge pays off twice: fewer blocks to interpret and fewer
// places where path merging loses precision.
// Every change this pass makes is a CFG change; it preserves nothing.
func SimplifyCFG() Pass {
	return funcPass{name: "simplifycfg", preserves: NoAnalyses, run: simplifyCFGFunc}
}

func simplifyCFGFunc(f *ir.Function, cx *Context) bool {
	defer dumpOnPanic("simplifycfg", f)
	changed := false
	for {
		n := 0
		n += foldConstBranches(f)
		if r := ir.RemoveUnreachable(f); r > 0 {
			cx.Stats.DeadBlocks += r
			n += r
		}
		n += removeSinglePredPhis(f, cx)
		n += mergeStraightLine(f, cx)
		n += forwardEmptyBlocks(f, cx)
		if n == 0 {
			break
		}
		changed = true
	}
	return changed
}

// foldConstBranches rewrites condbr on a constant into br, and condbr
// whose successors are identical into br.
func foldConstBranches(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		if c, ok := t.Args[0].(*ir.Const); ok {
			taken, dead := t.Succs[0], t.Succs[1]
			if c.IsZero() {
				taken, dead = dead, taken
			}
			t.Op = ir.OpBr
			t.Args = nil
			t.Succs = []*ir.Block{taken}
			if dead != taken {
				for _, phi := range dead.Phis() {
					phi.RemovePhiIncoming(b)
				}
			}
			n++
			continue
		}
		if t.Succs[0] == t.Succs[1] {
			t.Op = ir.OpBr
			t.Args = nil
			t.Succs = t.Succs[:1]
			n++
		}
	}
	return n
}

// removeSinglePredPhis replaces phis in single-predecessor blocks with
// their unique incoming value.
func removeSinglePredPhis(f *ir.Function, cx *Context) int {
	preds := cx.preds(f)
	n := 0
	for _, b := range f.Blocks {
		if len(preds.Of(b)) != 1 {
			continue
		}
		// A copy: the loop removes phis from b.Instrs, which b.Phis()
		// is the prefix of.
		for _, phi := range slices.Clone(b.Phis()) {
			if len(phi.Incoming) == 1 {
				ir.ReplaceUses(f, phi, phi.Args[0])
				b.Remove(phi)
				n++
			}
		}
	}
	return n
}

// mergeStraightLine splices a block into its unique predecessor when that
// predecessor jumps to it unconditionally. One predecessor table serves
// the whole sweep: a splice hands c's out-edges to b, which changes no
// surviving block's predecessor count, and only b's terminator changes,
// so b is examined again at once. The sweep therefore merges exactly
// what restarting after every merge did, in the same order, and drops
// the merged blocks in one compaction.
func mergeStraightLine(f *ir.Function, cx *Context) int {
	preds := cx.preds(f)
	var merged []*ir.Block
	for _, b := range f.Blocks {
		for {
			t := b.Term() // nil for a block merged earlier in the sweep
			if t == nil || t.Op != ir.OpBr {
				break
			}
			c := t.Succs[0]
			if c == b || c == f.Entry() || len(preds.Of(c)) != 1 {
				break
			}
			if len(c.Phis()) > 0 {
				break // removeSinglePredPhis will clear these first
			}
			// Splice: drop b's br, append c's instructions.
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
			for _, in := range c.Instrs {
				in.Blk = b
				b.Instrs = append(b.Instrs, in)
			}
			// Successor phis referring to c now come from b.
			for _, s := range b.Succs() {
				for _, phi := range s.Phis() {
					for i, ib := range phi.Incoming {
						if ib == c {
							phi.Incoming[i] = b
						}
					}
				}
			}
			c.Instrs = nil
			merged = append(merged, c)
		}
	}
	f.RemoveBlocks(merged)
	cx.Stats.BlocksMerged += len(merged)
	return len(merged)
}

// forwardEmptyBlocks redirects edges through blocks that contain only an
// unconditional branch. Every forward changes the CFG, so the table is
// refilled after each one.
func forwardEmptyBlocks(f *ir.Function, cx *Context) int {
	n := 0
	for {
		preds := cx.preds(f)
		forwarded := false
		for _, b := range f.Blocks {
			if b == f.Entry() || len(b.Instrs) != 1 {
				continue
			}
			t := b.Term()
			if t == nil || t.Op != ir.OpBr {
				continue
			}
			dst := t.Succs[0]
			if dst == b {
				continue
			}
			// Every predecessor's edge to b is redirected to dst, carrying
			// b's phi contribution along. Skip preds that already branch
			// to dst with a conflicting phi value.
			ok := true
			for _, p := range preds.Of(b) {
				alreadyPred := false
				for _, s := range p.Succs() {
					if s == dst {
						alreadyPred = true
					}
				}
				if alreadyPred {
					for _, phi := range dst.Phis() {
						vb := phi.PhiIncoming(b)
						vp := phi.PhiIncoming(p)
						if vb == nil || vp == nil || !sameValue(vb, vp) {
							ok = false
						}
					}
				}
			}
			if !ok || len(preds.Of(b)) == 0 {
				continue
			}
			for _, phi := range dst.Phis() {
				vb := phi.PhiIncoming(b)
				phi.RemovePhiIncoming(b)
				for _, p := range preds.Of(b) {
					if phi.PhiIncoming(p) == nil {
						phi.SetPhiIncoming(p, vb)
					}
				}
			}
			for _, p := range preds.Of(b) {
				pt := p.Term()
				for i, s := range pt.Succs {
					if s == b {
						pt.Succs[i] = dst
					}
				}
			}
			b.Instrs = nil
			f.RemoveBlock(b)
			n++
			forwarded = true
			break
		}
		if !forwarded {
			return n
		}
	}
}
