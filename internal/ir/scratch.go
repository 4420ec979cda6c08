package ir

import "overify/internal/freelist"

// cfgScratch is the working memory of one CFG query (ComputeDom,
// ReversePostorder, FindLoops, ChildrenInto, DominanceFrontiersInto,
// ComputePostDom, RemoveUnreachable, VerifyModule): the predecessor
// table, visited set, DFS stacks and pair lists that die when the
// query returns. A query borrows one from cfgPool and puts it back on
// return, so every compile refills the same arrays instead of
// allocating them per query. What a query returns (a DomTree's
// idom/order/rpo, a Loop) is never scratch.
type cfgScratch struct {
	preds  PredTable
	seen   []bool
	frames []dfsFrame
	blocks []*Block // a block stack or list
	pairs  []blockPair
	byNum  []*Block // a block per block number (DF's last join)
	loops  []*Loop  // FindLoops' loop by header number
}

var cfgPool freelist.List[cfgScratch]

// put clears every pointer the query left in the arrays, to their
// capacity (a stack's popped entries lie past its length), so a pooled
// scratch keeps no function's blocks alive, and returns s to the pool.
func (s *cfgScratch) put() {
	s.preds.Clear()
	clear(s.frames[:cap(s.frames)])
	clear(s.blocks[:cap(s.blocks)])
	clear(s.pairs[:cap(s.pairs)])
	clear(s.byNum[:cap(s.byNum)])
	clear(s.loops[:cap(s.loops)])
	cfgPool.Put(s)
}

// predsOf refills s's predecessor table with f's current CFG.
func (s *cfgScratch) predsOf(f *Function) PredTable {
	s.preds = f.PredsInto(s.preds)
	return s.preds
}

// visited returns s's visited set, refilled all false for block numbers
// below n.
func (s *cfgScratch) visited(n int) []bool {
	s.seen = refill(s.seen, n)
	return s.seen
}

// refill returns buf resized to n zero elements, reusing its array
// when it is large enough.
func refill[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// resize returns buf resized to n elements, reusing its array when it
// is large enough; the caller overwrites every element.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
