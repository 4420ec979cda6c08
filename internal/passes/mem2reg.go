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
	allocas := promotableAllocas(f, cx)
	if len(allocas) == 0 {
		return false
	}
	dt := cx.Dom(f)
	s := cx.scratch()
	s.frontiers = dt.DominanceFrontiersInto(s.frontiers)
	df := s.frontiers

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
	s.children = dt.ChildrenInto(s.children)
	children := s.children
	zero := func(a *ir.Instr) ir.Value {
		// A load before any store reads the variable's initial storage,
		// which MiniC defines as zero (unlike C's undef).
		if pt, ok := a.Allocated.(ir.PtrType); ok {
			return ir.NullPtr(pt.Elem)
		}
		return ir.ConstInt(a.Allocated.(ir.IntType), 0)
	}
	isPromoted := make(map[ir.Value]int, len(allocas)) // its index in allocas
	for i, a := range allocas {
		isPromoted[a] = i
	}

	// The current definition of each alloca, by its index (nil: none
	// yet), is a frame of len(allocas) values in s.defs. Each child
	// starts from a copy of its parent's frame pushed above it, so the
	// walk's frames form a stack in one scratch array.
	k := len(allocas)
	s.defs = append(s.defs[:0], make([]ir.Value, k)...)
	var rename func(b *ir.Block, base int)
	rename = func(b *ir.Block, base int) {
		cur := func(i int) ir.Value {
			if v := s.defs[base+i]; v != nil {
				return v
			}
			return zero(allocas[i])
		}
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpPhi:
				// A phi we placed defines its alloca.
				for i, a := range allocas {
					if phiFor[phiKey{b, a}] == in {
						s.defs[base+i] = in
						break
					}
				}
				kept = append(kept, in)
			case ir.OpLoad:
				if i, ok := isPromoted[in.Args[0]]; ok {
					ir.ReplaceUses(f, in, cur(i))
					in.Blk = nil
					continue // drop the load
				}
				kept = append(kept, in)
			case ir.OpStore:
				if i, ok := isPromoted[in.Args[1]]; ok {
					s.defs[base+i] = in.Args[0]
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
		for _, succ := range b.Succs() {
			for i, a := range allocas {
				if phi := phiFor[phiKey{succ, a}]; phi != nil {
					phi.SetPhiIncoming(b, cur(i))
				}
			}
		}
		for _, c := range children.Of(b) {
			top := len(s.defs)
			s.defs = append(s.defs, s.defs[base:base+k]...)
			rename(c, top)
			s.defs = s.defs[:top]
		}
	}
	rename(f.Entry(), 0)

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
func promotableAllocas(f *ir.Function, cx *Context) []*ir.Instr {
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
	// escaped is indexed by SSA id: only an instruction can be an alloca.
	s := cx.scratch()
	s.escaped = byID(s.escaped, f)
	escaped := s.escaped
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, arg := range in.Args {
				ok := (in.Op == ir.OpLoad && i == 0) || (in.Op == ir.OpStore && i == 1)
				if a, isInstr := arg.(*ir.Instr); !ok && isInstr {
					escaped[a.ID] = true
				}
			}
		}
	}
	kept := out[:0]
	for _, a := range out {
		if !escaped[a.ID] {
			kept = append(kept, a)
		}
	}
	return kept
}
