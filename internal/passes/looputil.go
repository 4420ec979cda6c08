package passes

import "overify/internal/ir"

// ensurePreheader returns the loop's preheader, creating one if the
// header has multiple outside predecessors or a conditional entry edge.
// Returns nil when the header is the function entry (such loops are left
// alone). Creating a preheader is a CFG edit, so it invalidates the
// function's cached analyses even when the calling pass otherwise
// preserves them (the callers keep using their already-computed — and
// still structurally valid — trees for the rest of their run).
func ensurePreheader(cx *Context, f *ir.Function, l *ir.Loop) *ir.Block {
	if l.Header == f.Entry() {
		return nil
	}
	preds := cx.preds(f)
	if ph := l.Preheader(preds); ph != nil {
		return ph
	}
	var outside []*ir.Block
	for _, p := range preds.Of(l.Header) {
		if !l.Blocks[p] {
			outside = append(outside, p)
		}
	}
	if len(outside) == 0 {
		return nil
	}
	cx.Invalidate(f, NoAnalyses)
	ph := f.NewBlock(l.Header.Name + ".ph")

	// Header phis: fold the outside incoming edges into the preheader.
	for _, phi := range l.Header.Phis() {
		if len(outside) == 1 {
			v := phi.PhiIncoming(outside[0])
			phi.RemovePhiIncoming(outside[0])
			phi.SetPhiIncoming(ph, v)
			continue
		}
		nphi := &ir.Instr{Op: ir.OpPhi, Typ: phi.Typ}
		f.ClaimID(nphi)
		nphi.Blk = ph
		ph.Instrs = append(ph.Instrs, nphi)
		for _, p := range outside {
			nphi.SetPhiIncoming(p, phi.PhiIncoming(p))
			phi.RemovePhiIncoming(p)
		}
		phi.SetPhiIncoming(ph, nphi)
	}
	bd := ir.NewBuilder(f, ph)
	bd.Br(l.Header)
	for _, p := range outside {
		t := p.Term()
		for i, s := range t.Succs {
			if s == l.Header {
				t.Succs[i] = ph
			}
		}
	}
	return ph
}

// definedInLoop reports whether v is an instruction defined inside l.
func definedInLoop(l *ir.Loop, v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	return ok && in.Blk != nil && l.Blocks[in.Blk]
}

// loopInvariant reports whether every operand of in is defined outside l.
func loopInvariant(l *ir.Loop, in *ir.Instr) bool {
	for _, a := range in.Args {
		if definedInLoop(l, a) {
			return false
		}
	}
	return true
}

// lcssa puts the loop into loop-closed SSA form: every value defined in
// the loop and used outside it is routed through a phi node in the exit
// block that dominates the use. Loop cloning (unswitch, unroll/peel) can
// then add new exit edges by extending those phis without breaking
// dominance. Returns false when the loop's exits are too irregular to
// close (the caller must then skip the transform).
func lcssa(cx *Context, f *ir.Function, l *ir.Loop, dt *ir.DomTree) bool {
	if len(l.Exits) == 0 {
		return true // no exits, nothing can be used outside
	}
	preds := cx.preds(f)
	// Group exit edges by target and require every predecessor of each
	// exit target to be a loop block, so a phi there covers all edges.
	froms := make(map[*ir.Block][]*ir.Block)
	for _, e := range l.Exits {
		froms[e.To] = append(froms[e.To], e.From)
	}
	for to := range froms {
		for _, p := range preds.Of(to) {
			if !l.Blocks[p] {
				return false
			}
		}
	}

	type useRef struct {
		in  *ir.Instr
		arg int
	}
	for _, b := range l.BlocksInRPO(dt) {
		for _, def := range b.Instrs {
			if ir.SameType(def.Typ, ir.Void) {
				continue
			}
			var outside []useRef
			for _, ub := range f.Blocks {
				for _, u := range ub.Instrs {
					for i, a := range u.Args {
						if a != def {
							continue
						}
						useBlock := u.Blk
						if u.Op == ir.OpPhi {
							useBlock = u.Incoming[i]
						}
						if !l.Blocks[useBlock] {
							outside = append(outside, useRef{u, i})
						}
					}
				}
			}
			if len(outside) == 0 {
				continue
			}
			phiAt := make(map[*ir.Block]*ir.Instr)
			getPhi := func(to *ir.Block) *ir.Instr {
				if phi := phiAt[to]; phi != nil {
					return phi
				}
				phi := &ir.Instr{Op: ir.OpPhi, Typ: def.Typ}
				f.ClaimID(phi)
				phi.Blk = to
				to.Instrs = append([]*ir.Instr{phi}, to.Instrs...)
				for _, p := range preds.Of(to) {
					phi.SetPhiIncoming(p, def)
				}
				phiAt[to] = phi
				return phi
			}
			for _, u := range outside {
				useBlock := u.in.Blk
				if u.in.Op == ir.OpPhi {
					useBlock = u.in.Incoming[u.arg]
				}
				// Deepest exit target dominating the use.
				var chosen *ir.Block
				for to := range froms {
					if dt.Dominates(to, useBlock) {
						if chosen == nil || dt.Dominates(chosen, to) {
							chosen = to
						}
					}
				}
				if chosen == nil || !dt.Dominates(def.Blk, chosen) {
					return false // cannot place a dominated phi: bail out
				}
				// The phi's operands read def at the end of each exit
				// predecessor, so def must dominate them all.
				for _, p := range preds.Of(chosen) {
					if !dt.Dominates(def.Blk, p) {
						return false
					}
				}
				if u.in == phiAt[chosen] {
					continue // don't rewrite the lcssa phi's own operand
				}
				u.in.Args[u.arg] = getPhi(chosen)
			}
		}
	}
	return true
}

// replaceUsesInBlocks rewrites uses of old with new, but only within the
// given block set. Used by unswitching to specialize each loop copy with
// the known branch outcome.
func replaceUsesInBlocks(blocks map[*ir.Block]bool, old, new ir.Value) int {
	n := 0
	for b := range blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a == old {
					in.Args[i] = new
					n++
				}
			}
		}
	}
	return n
}
