package ir

// DomTree holds immediate-dominator information for a function's CFG,
// computed with the Cooper–Harvey–Kennedy iterative algorithm. Its
// tables are slices indexed by block number; a block the function had
// not numbered when the tree was built reads as unreachable.
type DomTree struct {
	fn    *Function
	idom  []*Block // by block number; nil: unreachable
	order []int32  // by block number: reverse postorder index + 1; 0: unreachable
	rpo   []*Block
}

// ReversePostorder returns the function's reachable blocks in reverse
// postorder (entry first).
func ReversePostorder(f *Function) []*Block {
	return reversePostorder(f, make([]bool, f.NumBlocks()))
}

// reversePostorder is ReversePostorder with the caller's visited set,
// indexed by block number and all false. The walk is an explicit-stack
// DFS that appends a block after its last successor, exactly as the
// recursive definition does.
func reversePostorder(f *Function, seen []bool) []*Block {
	e := f.Entry()
	if e == nil {
		return nil
	}
	post := make([]*Block, 0, len(f.Blocks))
	type frame struct {
		b    *Block
		next int // index of the next successor to visit
	}
	stack := make([]frame, 0, len(f.Blocks))
	seen[e.num] = true
	stack = append(stack, frame{b: e})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succs := top.b.Succs()
		if top.next == len(succs) {
			post = append(post, top.b)
			stack = stack[:len(stack)-1]
			continue
		}
		s := succs[top.next]
		top.next++
		if s.Fn == f && !seen[s.num] { // a foreign block: VerifyModule reports it
			seen[s.num] = true
			stack = append(stack, frame{b: s})
		}
	}
	// Reverse in place.
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// ComputeDom builds the dominator tree of f's reachable CFG. Its cost in
// allocations does not depend on the function's size.
func ComputeDom(f *Function) *DomTree {
	n := f.NumBlocks()
	dt := &DomTree{
		fn:    f,
		idom:  make([]*Block, n),
		order: make([]int32, n),
	}
	dt.rpo = reversePostorder(f, make([]bool, n))
	for i, b := range dt.rpo {
		dt.order[b.num] = int32(i + 1)
	}
	entry := f.Entry()
	if entry == nil {
		return dt
	}
	preds := f.Preds()
	dt.idom[entry.num] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range dt.rpo {
			if b == entry {
				continue
			}
			var newIdom *Block
			for _, p := range preds.Of(b) {
				if dt.Idom(p) == nil {
					continue // not yet processed or unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = dt.intersect(p, newIdom)
				}
			}
			if newIdom != nil && dt.idom[b.num] != newIdom {
				dt.idom[b.num] = newIdom
				changed = true
			}
		}
	}
	return dt
}

func (dt *DomTree) intersect(a, b *Block) *Block {
	for a != b {
		for dt.order[a.num] > dt.order[b.num] {
			a = dt.idom[a.num]
		}
		for dt.order[b.num] > dt.order[a.num] {
			b = dt.idom[b.num]
		}
	}
	return a
}

// Idom returns the immediate dominator of b (entry's idom is entry itself);
// nil for unreachable blocks.
func (dt *DomTree) Idom(b *Block) *Block {
	if int(b.num) >= len(dt.idom) {
		return nil
	}
	return dt.idom[b.num]
}

// Reachable reports whether b is reachable from the entry.
func (dt *DomTree) Reachable(b *Block) bool {
	return int(b.num) < len(dt.order) && dt.order[b.num] != 0
}

// Dominates reports whether a dominates b (reflexively).
func (dt *DomTree) Dominates(a, b *Block) bool {
	if !dt.Reachable(a) || !dt.Reachable(b) {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := dt.idom[b.num]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// RPO returns the blocks in reverse postorder.
func (dt *DomTree) RPO() []*Block { return dt.rpo }

// Children returns the dominator-tree children of every reachable
// block, each list in reverse postorder.
func (dt *DomTree) Children() BlockTable {
	pairs := make([]blockPair, 0, len(dt.rpo))
	for _, b := range dt.rpo[min(1, len(dt.rpo)):] { // the entry has no parent
		pairs = append(pairs, blockPair{dt.idom[b.num], b})
	}
	return tableOf(len(dt.order), pairs)
}

// DominanceFrontiers computes the dominance frontier of every reachable
// block (Cytron et al.), used for pruned-SSA phi placement in mem2reg.
// Each frontier lists its blocks in the order the walk reaches them.
func (dt *DomTree) DominanceFrontiers() BlockTable {
	var pairs []blockPair
	// last[n] is the join block most recently added to the frontier of
	// the block numbered n. Joins are visited one at a time, so that is
	// the only duplicate a frontier can meet.
	last := make([]*Block, len(dt.order))
	preds := dt.fn.Preds()
	for _, b := range dt.rpo {
		ps := preds.Of(b)
		if len(ps) < 2 {
			continue
		}
		for _, p := range ps {
			if !dt.Reachable(p) {
				continue
			}
			runner := p
			for runner != dt.idom[b.num] {
				if last[runner.num] != b {
					last[runner.num] = b
					pairs = append(pairs, blockPair{runner, b})
				}
				next := dt.idom[runner.num]
				if next == nil || next == runner {
					break
				}
				runner = next
			}
		}
	}
	return tableOf(len(dt.order), pairs)
}

// InstrDominates reports whether def is available at the point of use.
// Both must belong to the same function; phi uses are considered to occur
// at the end of the corresponding incoming block.
func (dt *DomTree) InstrDominates(def *Instr, use *Instr, useOperand int) bool {
	defB := def.Blk
	useB := use.Blk
	if use.Op == OpPhi {
		useB = use.Incoming[useOperand]
		if defB != useB {
			return dt.Dominates(defB, useB)
		}
		return true // def in the incoming block dominates its end
	}
	if defB != useB {
		return dt.Dominates(defB, useB)
	}
	for _, in := range defB.Instrs {
		if in == def {
			return true
		}
		if in == use {
			return false
		}
	}
	return false
}
