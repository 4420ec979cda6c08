package ir

import "sort"

// Loop describes a natural loop discovered from a back edge.
type Loop struct {
	Header  *Block
	Blocks  map[*Block]bool // includes the header
	Latches []*Block        // blocks with a back edge to the header

	// Exits are (from, to) edges leaving the loop.
	Exits []LoopExit

	Parent *Loop // enclosing loop, if any
	Depth  int   // nesting depth, outermost = 1
}

// LoopExit is a CFG edge from inside the loop to a block outside it.
type LoopExit struct {
	From *Block
	To   *Block
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *Block) bool { return l.Blocks[b] }

// NumBlocks returns the loop body size in blocks.
func (l *Loop) NumBlocks() int { return len(l.Blocks) }

// NumInstrs returns the loop body size in instructions.
func (l *Loop) NumInstrs() int {
	n := 0
	for b := range l.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// BlocksSorted returns the loop's blocks sorted by name, for
// deterministic iteration when no dominator tree is at hand.
func (l *Loop) BlocksSorted() []*Block {
	out := make([]*Block, 0, len(l.Blocks))
	for b := range l.Blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BlocksInRPO returns the loop's blocks sorted by the dominator tree's
// reverse postorder, for deterministic iteration.
func (l *Loop) BlocksInRPO(dt *DomTree) []*Block {
	out := make([]*Block, 0, len(l.Blocks))
	for b := range l.Blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return dt.order[out[i].num] < dt.order[out[j].num] })
	return out
}

// FindLoops discovers the natural loops of f using dt. Loops sharing a
// header are merged. The result is ordered outermost-first and is
// deterministic.
func FindLoops(f *Function, dt *DomTree) []*Loop {
	s := cfgPool.Get()
	defer s.put()
	preds := s.predsOf(f)
	// byHeader holds each loop found so far under its header's number;
	// dt.Dominates(h, b) holds only for blocks dt numbered.
	s.loops = refill(s.loops, len(dt.order))
	byHeader := s.loops
	var loops []*Loop // in order of discovery

	for _, b := range dt.RPO() {
		for _, h := range b.Succs() {
			if !dt.Dominates(h, b) {
				continue // not a back edge
			}
			l := byHeader[h.num]
			if l == nil {
				l = &Loop{Header: h, Blocks: map[*Block]bool{h: true}}
				byHeader[h.num] = l
				loops = append(loops, l)
			}
			l.Latches = append(l.Latches, b)
			// Walk backwards from the latch to collect the body.
			stack := append(s.blocks[:0], b)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[x] {
					continue
				}
				l.Blocks[x] = true
				for _, p := range preds.Of(x) {
					if dt.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
			s.blocks = stack
		}
	}

	// Establish nesting: loop A is inside B if B contains A's header and
	// A != B. Choose the smallest enclosing loop as the parent.
	for _, a := range loops {
		for _, b := range loops {
			if a == b || !b.Blocks[a.Header] {
				continue
			}
			if a.Parent == nil || a.Parent.NumBlocks() > b.NumBlocks() {
				a.Parent = b
			}
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
		// Collect exit edges.
		for b := range l.Blocks {
			for _, s := range b.Succs() {
				if !l.Blocks[s] {
					l.Exits = append(l.Exits, LoopExit{From: b, To: s})
				}
			}
		}
		sort.Slice(l.Exits, func(i, j int) bool {
			if l.Exits[i].From.Name != l.Exits[j].From.Name {
				return l.Exits[i].From.Name < l.Exits[j].From.Name
			}
			return l.Exits[i].To.Name < l.Exits[j].To.Name
		})
		sort.Slice(l.Latches, func(i, j int) bool { return l.Latches[i].Name < l.Latches[j].Name })
	}
	// Outermost-first, then by header RPO index for determinism.
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Depth != loops[j].Depth {
			return loops[i].Depth < loops[j].Depth
		}
		return dt.order[loops[i].Header.num] < dt.order[loops[j].Header.num]
	})
	return loops
}

// Preheader returns the unique predecessor of the header outside the loop
// whose only successor is the header; nil if there is none.
func (l *Loop) Preheader(preds PredTable) *Block {
	var outside []*Block
	for _, p := range preds.Of(l.Header) {
		if !l.Blocks[p] {
			outside = append(outside, p)
		}
	}
	if len(outside) != 1 {
		return nil
	}
	ph := outside[0]
	if t := ph.Term(); t != nil && t.Op == OpBr {
		return ph
	}
	return nil
}
