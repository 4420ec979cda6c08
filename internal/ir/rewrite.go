package ir

// ReplaceUses rewrites every operand in f that references old to use new
// instead. It returns the number of operands rewritten.
func ReplaceUses(f *Function, old, new Value) int {
	n := 0
	for _, b := range f.Blocks {
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

// HasUses reports whether v (an instruction result or parameter) is
// referenced anywhere in f.
func HasUses(f *Function, v Value) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == v {
					return true
				}
			}
		}
	}
	return false
}

// CountUses returns the number of operand slots in f referencing v.
func CountUses(f *Function, v Value) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == v {
					n++
				}
			}
		}
	}
	return n
}

// RedirectBranch rewrites every successor edge of b that targets from so
// it targets to, and fixes the phi nodes of both blocks accordingly.
func RedirectBranch(b *Block, from, to *Block) {
	t := b.Term()
	if t == nil {
		return
	}
	changed := false
	for i, s := range t.Succs {
		if s == from {
			t.Succs[i] = to
			changed = true
		}
	}
	if !changed {
		return
	}
	// b no longer flows into from (unless another edge remains).
	still := false
	for _, s := range t.Succs {
		if s == from {
			still = true
		}
	}
	if !still {
		for _, phi := range from.Phis() {
			phi.RemovePhiIncoming(b)
		}
	}
	// Phis in to gain an edge from b; the caller must set meaningful
	// values — default to the value flowing along any existing edge is not
	// safe, so leave the phi untouched if b is already incoming.
	for _, phi := range to.Phis() {
		if phi.PhiIncoming(b) == nil && len(phi.Incoming) > 0 {
			// Caller responsibility; keep structure valid by duplicating
			// the first incoming value (passes that use RedirectBranch
			// only do so when to has no phis or b's value is set after).
			phi.SetPhiIncoming(b, phi.Args[0])
		}
	}
}

// RemoveUnreachable deletes blocks not reachable from the entry, fixing up
// phi nodes of surviving blocks. Returns the number of blocks removed.
func RemoveUnreachable(f *Function) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	reach := make([]bool, f.NumBlocks()) // by block number
	reached := func(b *Block) bool { return b.Fn == f && reach[b.num] }
	stack := []*Block{f.Entry()}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b.Fn != f || reach[b.num] {
			continue
		}
		reach[b.num] = true
		stack = append(stack, b.Succs()...)
	}
	removed := 0
	for _, b := range f.Blocks {
		if !reached(b) {
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	kept := make([]*Block, 0, len(f.Blocks)-removed)
	for _, b := range f.Blocks {
		if reached(b) {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
	for _, b := range kept {
		for _, phi := range b.Phis() {
			for i := len(phi.Incoming) - 1; i >= 0; i-- {
				if !reached(phi.Incoming[i]) {
					phi.RemovePhiIncoming(phi.Incoming[i])
				}
			}
		}
	}
	return removed
}
