package ir

// CloneMap is what the latest clone made: each cloned block's copy and
// each cloned value's copy, in tables indexed by the source function's
// block numbers and SSA ids rather than in maps. A pass keeps one and
// refills it with every clone, so its tables grow to the largest region
// the pass clones and are not allocated again; it answers for the
// latest clone only.
type CloneMap struct {
	src    *Function
	blocks []*Block      // by source block number: the copy, nil outside the region
	instrs []clonedInstr // by source SSA id: the copy, zero outside the region
	ids    []int32       // the ids instrs holds, cleared before the next clone
	params []Value       // by parameter index: the argument bound to it (inlining)
}

// clonedInstr is one entry of CloneMap.instrs. from guards the entry:
// an instruction of another function can carry the same id.
type clonedInstr struct{ from, to *Instr }

// Block returns b's copy, or nil when b was not cloned.
func (cm *CloneMap) Block(b *Block) *Block {
	if b.Fn != cm.src || int(b.num) >= len(cm.blocks) {
		return nil
	}
	return cm.blocks[b.num]
}

// Lookup returns v's copy, defaulting to v itself (constants, globals
// and values defined outside the cloned region map to themselves); a
// parameter of an inlined callee maps to its argument.
func (cm *CloneMap) Lookup(v Value) Value {
	switch x := v.(type) {
	case *Instr:
		if x.ID < len(cm.instrs) && cm.instrs[x.ID].from == x {
			return cm.instrs[x.ID].to
		}
	case *Param:
		if x.Idx < len(cm.params) && cm.src.Params[x.Idx] == x {
			return cm.params[x.Idx]
		}
	}
	return v
}

// Clear drops every pointer the tables hold, to their capacity, so a
// CloneMap kept for refilling keeps no function alive.
func (cm *CloneMap) Clear() {
	cm.src = nil
	clear(cm.blocks[:cap(cm.blocks)])
	clear(cm.instrs[:cap(cm.instrs)])
	clear(cm.params[:cap(cm.params)])
	cm.ids = cm.ids[:0]
}

// reset empties cm for a clone of blocks of src, binding src's
// parameters to args. Only the instruction entries the previous clone
// wrote are nonzero, so clearing them costs that clone's size, not the
// function's.
func (cm *CloneMap) reset(src *Function, args []Value) {
	for _, id := range cm.ids {
		cm.instrs[id] = clonedInstr{}
	}
	cm.ids = cm.ids[:0]
	cm.src = src
	cm.blocks = refill(cm.blocks, src.NumBlocks())
	if n := src.MaxID() + 1; cap(cm.instrs) < n {
		cm.instrs = make([]clonedInstr, n)
	} else {
		cm.instrs = cm.instrs[:n]
	}
	cm.params = append(cm.params[:0], args...)
}

// CloneBlocks duplicates the given blocks of f into f, remapping
// operands and successor edges that point inside the region. Values
// defined outside the region (and blocks outside it) are left as-is.
// cm is refilled with the old-block→new-block and old-instr→new-instr
// entries.
func CloneBlocks(f *Function, region []*Block, cm *CloneMap) {
	cm.reset(f, nil)
	cloneInto(f, region, cm)
}

// CloneFunctionBody clones all blocks of src into dst, substituting
// src's parameters with the given argument values, and refills cm for
// the caller to wire up entry and exits.
func CloneFunctionBody(dst *Function, src *Function, args []Value, cm *CloneMap) {
	cm.reset(src, args)
	cloneInto(dst, src.Blocks, cm)
}

func cloneInto(f *Function, region []*Block, cm *CloneMap) {
	// First create empty clones so intra-region branches can be remapped.
	for _, b := range region {
		nb := &Block{Name: b.Name}
		f.AdoptBlock(nb)
		cm.blocks[b.num] = nb
	}
	// Clone instructions.
	for _, b := range region {
		nb := cm.blocks[b.num]
		nb.Instrs = make([]*Instr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			ni := &Instr{
				Op:        in.Op,
				Typ:       in.Typ,
				Callee:    in.Callee,
				Allocated: in.Allocated,
				Count:     in.Count,
				Kind:      in.Kind,
				Msg:       in.Msg,
			}
			ni.Args = make([]Value, len(in.Args))
			copy(ni.Args, in.Args) // remapped below
			if in.Succs != nil {
				ni.Succs = make([]*Block, len(in.Succs))
				for i, s := range in.Succs {
					if ns := cm.Block(s); ns != nil {
						ni.Succs[i] = ns
					} else {
						ni.Succs[i] = s
					}
				}
			}
			if in.Incoming != nil {
				ni.Incoming = make([]*Block, len(in.Incoming))
				copy(ni.Incoming, in.Incoming) // remapped below
			}
			f.ClaimID(ni)
			ni.Blk = nb
			nb.Instrs = append(nb.Instrs, ni)
			cm.instrs[in.ID] = clonedInstr{from: in, to: ni}
			cm.ids = append(cm.ids, int32(in.ID))
		}
	}
	// Remap operands and phi incoming blocks.
	for _, b := range region {
		for _, ni := range cm.blocks[b.num].Instrs {
			for j, a := range ni.Args {
				ni.Args[j] = cm.Lookup(a)
			}
			for j, ib := range ni.Incoming {
				if nib := cm.Block(ib); nib != nil {
					ni.Incoming[j] = nib
				}
			}
		}
	}
}
