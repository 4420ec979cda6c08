package passes

import (
	"overify/internal/ir"
)

// Mem2Reg promotes single-element allocas whose address never escapes
// into SSA registers, inserting phi nodes at iterated dominance
// frontiers (Cytron et al.). This is the enabling pass for everything
// else: the clang-style -O0 output keeps every variable in memory, which
// hides all structure from the other passes (and from verification
// tools, as the paper's "Instruction simplification" section notes).
// Promotion adds phis and deletes loads/stores/allocas but never
// touches an edge, so the CFG analyses survive.
func Mem2Reg() Pass {
	return funcPass{name: "mem2reg", preserves: AllAnalyses, run: mem2regFunc}
}

func mem2regFunc(f *ir.Function, cx *Context) bool {
	defer dumpOnPanic("mem2reg", f)
	allocas := promotableAllocas(f)
	if len(allocas) == 0 {
		return false
	}
	dt := cx.Dom(f)
	df := dt.DominanceFrontiers()

	// Phi placement at iterated dominance frontiers of the defs.
	type phiKey struct {
		b *ir.Block
		a *ir.Instr
	}
	phiFor := make(map[phiKey]*ir.Instr)
	for _, a := range allocas {
		defBlocks := make(map[*ir.Block]bool)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpStore && in.Args[1] == a {
					defBlocks[b] = true
				}
			}
		}
		// Seed the worklist in block order, not map order: phi IDs are
		// claimed in pop order, and the module text must be identical
		// across runs (and across manager schedules).
		work := make([]*ir.Block, 0, len(defBlocks))
		for _, b := range f.Blocks {
			if defBlocks[b] {
				work = append(work, b)
			}
		}
		placed := make(map[*ir.Block]bool)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fr := range df.Of(b) {
				if placed[fr] {
					continue
				}
				placed[fr] = true
				phi := &ir.Instr{Op: ir.OpPhi, Typ: a.Allocated}
				f.ClaimID(phi)
				phi.Blk = fr
				fr.Instrs = append([]*ir.Instr{phi}, fr.Instrs...)
				phiFor[phiKey{fr, a}] = phi
				if !defBlocks[fr] {
					defBlocks[fr] = true
					work = append(work, fr)
				}
			}
		}
	}

	// Renaming walk over the dominator tree.
	children := dt.Children()
	zero := func(a *ir.Instr) ir.Value {
		// A load before any store reads the variable's initial storage,
		// which MiniC defines as zero (unlike C's undef).
		if pt, ok := a.Allocated.(ir.PtrType); ok {
			return ir.NullPtr(pt.Elem)
		}
		return ir.ConstInt(a.Allocated.(ir.IntType), 0)
	}
	isPromoted := make(map[ir.Value]*ir.Instr, len(allocas))
	for _, a := range allocas {
		isPromoted[a] = a
	}

	var rename func(b *ir.Block, cur map[*ir.Instr]ir.Value)
	rename = func(b *ir.Block, cur map[*ir.Instr]ir.Value) {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpPhi:
				// A phi we placed defines its alloca.
				for _, a := range allocas {
					if phiFor[phiKey{b, a}] == in {
						cur[a] = in
						break
					}
				}
				kept = append(kept, in)
			case ir.OpLoad:
				if a, ok := isPromoted[in.Args[0]]; ok {
					v, have := cur[a]
					if !have {
						v = zero(a)
					}
					ir.ReplaceUses(f, in, v)
					in.Blk = nil
					continue // drop the load
				}
				kept = append(kept, in)
			case ir.OpStore:
				if a, ok := isPromoted[in.Args[1]]; ok {
					cur[a] = in.Args[0]
					in.Blk = nil
					continue // drop the store
				}
				kept = append(kept, in)
			default:
				kept = append(kept, in)
			}
		}
		b.Instrs = kept
		// Fill successor phis along each edge.
		for _, s := range b.Succs() {
			for _, a := range allocas {
				if phi := phiFor[phiKey{s, a}]; phi != nil {
					v, have := cur[a]
					if !have {
						v = zero(a)
					}
					phi.SetPhiIncoming(b, v)
				}
			}
		}
		for _, c := range children.Of(b) {
			// Each child gets its own copy of the current-definition map.
			childCur := make(map[*ir.Instr]ir.Value, len(cur))
			for k, v := range cur {
				childCur[k] = v
			}
			rename(c, childCur)
		}
	}
	rename(f.Entry(), make(map[*ir.Instr]ir.Value))

	// Remove the allocas themselves.
	for _, a := range allocas {
		if a.Blk != nil {
			a.Blk.Remove(a)
		}
	}
	cx.Stats.AllocasPromoted += len(allocas)
	return true
}

// promotableAllocas returns single-cell allocas used only as the pointer
// operand of loads and stores (the address never escapes).
func promotableAllocas(f *ir.Function) []*ir.Instr {
	var out []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && in.Count == 1 {
				out = append(out, in)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	escaped := make(map[ir.Value]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, arg := range in.Args {
				ok := (in.Op == ir.OpLoad && i == 0) || (in.Op == ir.OpStore && i == 1)
				if !ok {
					escaped[arg] = true
				}
			}
		}
	}
	kept := out[:0]
	for _, a := range out {
		if !escaped[a] {
			kept = append(kept, a)
		}
	}
	return kept
}
