package ir

// PostDomTree holds immediate-postdominator information for a
// function's CFG, computed with the same Cooper–Harvey–Kennedy
// iteration as ComputeDom but over the reverse CFG, rooted at a
// virtual exit node that unifies every ret/unreachable block. Blocks
// from which no exit is reachable (infinite loops) have no
// postdominator and are reported by HasExit as false — clients that
// delete control flow must treat them conservatively.
type PostDomTree struct {
	fn   *Function
	exit *Block // virtual exit sentinel, never part of the function
	// ipdom and order are indexed by block number, the virtual exit at
	// 0 (it is never numbered). A nil ipdom: the block cannot reach an
	// exit. An order is the reverse-CFG RPO index + 1; 0: unreached.
	ipdom []*Block
	order []int32
}

// ComputePostDom builds the postdominator tree of f.
func ComputePostDom(f *Function) *PostDomTree {
	n := f.NumBlocks()
	pt := &PostDomTree{
		fn:    f,
		exit:  &Block{Name: "<virtual-exit>"},
		ipdom: make([]*Block, n),
		order: make([]int32, n),
	}
	preds := f.Preds() // real preds = reverse-CFG succs

	var exits []*Block
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil && (t.Op == OpRet || t.Op == OpUnreachable) {
			exits = append(exits, b)
		}
	}

	// Postorder on the reverse CFG from the virtual exit; reversing it
	// gives the RPO the CHK iteration wants (virtual exit first).
	seen := make([]bool, n)
	var post []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b.num] {
			return
		}
		seen[b.num] = true
		for _, p := range preds.Of(b) {
			visit(p)
		}
		post = append(post, b)
	}
	for _, e := range exits {
		visit(e)
	}
	post = append(post, pt.exit)
	rpo := make([]*Block, len(post))
	for i, b := range post {
		rpo[len(post)-1-i] = b
	}
	for i, b := range rpo {
		pt.order[b.num] = int32(i + 1)
	}

	pt.ipdom[0] = pt.exit
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == pt.exit {
				continue
			}
			// Reverse-CFG predecessors of b: its real successors, plus the
			// virtual exit when b itself exits the function.
			var newIpdom *Block
			consider := func(s *Block) {
				if pt.ipdom[s.num] == nil {
					return
				}
				if newIpdom == nil {
					newIpdom = s
				} else {
					newIpdom = pt.intersect(s, newIpdom)
				}
			}
			if t := b.Term(); t != nil && (t.Op == OpRet || t.Op == OpUnreachable) {
				consider(pt.exit)
			}
			for _, s := range b.Succs() {
				if s.Fn == f { // a foreign block reaches no exit of f
					consider(s)
				}
			}
			if newIpdom != nil && pt.ipdom[b.num] != newIpdom {
				pt.ipdom[b.num] = newIpdom
				changed = true
			}
		}
	}
	return pt
}

func (pt *PostDomTree) intersect(a, b *Block) *Block {
	for a != b {
		for pt.order[a.num] > pt.order[b.num] {
			a = pt.ipdom[a.num]
		}
		for pt.order[b.num] > pt.order[a.num] {
			b = pt.ipdom[b.num]
		}
	}
	return a
}

// get returns b's immediate postdominator slot: nil when b cannot reach
// an exit or was numbered after the tree was built.
func (pt *PostDomTree) get(b *Block) *Block {
	if b.num == 0 || int(b.num) >= len(pt.ipdom) {
		return nil
	}
	return pt.ipdom[b.num]
}

// Ipdom returns b's immediate postdominator, or nil when it is the
// virtual exit (b exits the function directly) or b cannot reach an
// exit at all (distinguish with HasExit).
func (pt *PostDomTree) Ipdom(b *Block) *Block {
	ip := pt.get(b)
	if ip == pt.exit {
		return nil
	}
	return ip
}

// HasExit reports whether some ret/unreachable block is reachable from b.
func (pt *PostDomTree) HasExit(b *Block) bool { return pt.get(b) != nil }

// PostDominates reports whether a postdominates b (reflexively). False
// when either block cannot reach an exit.
func (pt *PostDomTree) PostDominates(a, b *Block) bool {
	if pt.get(a) == nil || pt.get(b) == nil {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := pt.ipdom[b.num]
		if next == b || next == nil {
			return false
		}
		if next == pt.exit {
			return false
		}
		b = next
	}
}
