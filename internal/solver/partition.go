package solver

import (
	"slices"
	"sync/atomic"

	"overify/internal/expr"
)

// Group is one independence class of a path condition: constraints
// transitively linked by shared variables. Groups are immutable after
// construction and shared structurally between the partitions of forked
// states; a group's verdict lives in the shared cache under fp.
type Group struct {
	cs []*expr.Expr // constraints in append order, each once
	vs *expr.VarSet // union of the constraints' variable sets
	fp Fingerprint  // set hash of the constraints (fingerprint.go)
}

// Fingerprint returns the group's cache key.
func (g *Group) Fingerprint() Fingerprint { return g.fp }

// Constraints returns the group's constraints. The slice is shared and
// must not be mutated.
func (g *Group) Constraints() []*expr.Expr { return g.cs }

// Vars returns the group's variable set.
func (g *Group) Vars() *expr.VarSet { return g.vs }

func newGroup(c *expr.Expr) *Group {
	return &Group{cs: []*expr.Expr{c}, vs: c.VarSet(), fp: idKey(c.ID())}
}

// mergeGroups builds the group holding every group of gs that shares a
// variable with c, and c. c is in none of them: a constraint already in
// a group touches that group alone, and Extend returns before merging
// it. The key is the sum of the parts' keys and c's, so no constraint of
// the parts is read to build it.
func mergeGroups(gs []*Group, c *expr.Expr) *Group {
	vs := c.VarSet()
	n := 1
	for _, g := range gs {
		if g.vs.Intersects(vs) {
			n += len(g.cs)
		}
	}
	m := &Group{cs: make([]*expr.Expr, 0, n), fp: idKey(c.ID())}
	for _, g := range gs {
		if g.vs.Intersects(vs) {
			m.cs = append(m.cs, g.cs...)
			m.vs = expr.MergeVarSets(m.vs, g.vs)
			m.fp = m.fp.plus(g.fp)
		}
	}
	m.cs = append(m.cs, c)
	m.vs = expr.MergeVarSets(m.vs, vs)
	return m
}

// Partition is the persistent independence structure of a path
// condition. Path conditions grow one constraint per branch, so the
// symbolic-execution engine carries the partition forward on each
// state: appending a constraint merges its variable set into the
// existing groups in O(groups) instead of re-running union-find over
// the whole condition, and forked states share it by pointer
// (partitions are immutable; Extend returns a new one).
//
// Besides the groups a partition carries its extension history (hist):
// which constraint Extend appended to which earlier condition, and per
// condition a small memo of which recent models satisfy it. That is
// what makes the solver's model-reuse probe incremental — a model
// satisfies P.Extend(c) iff it satisfies P and c — see
// Solver.modelSatisfies. The history is also the condition's only list
// of its constraints (AppendConstraints).
//
// A nil *Partition is the empty path condition.
type Partition struct {
	groups []*Group
	hist   *reuseNode
}

// unsatPartition is the partition of every condition that holds a
// constant-false constraint.
var unsatPartition = &Partition{}

// reuseNode is one step of a partition's extension history: the
// condition "parent's condition and c". Nodes are linked instead of
// partitions so that a live state keeps only this lean chain of its
// ancestors reachable, never their groups. parent and c are immutable;
// memo is the only field written after construction, atomically,
// because forked states on different workers — whose solvers hold
// different recent models — share the chain.
type reuseNode struct {
	parent *reuseNode
	c      *expr.Expr
	// memo packs what is known about recent models against this node's
	// condition into one word, so that a concurrent reader always sees
	// a consistent set of facts: a window base (a model serial) above
	// memoWindow "verdict known" bits above memoWindow "satisfies"
	// bits, bit i of each for the model with serial base+i. It is a
	// memo and nothing more: a fact about (condition, model) never
	// changes, recording one may push others out of the window, and
	// racing writers may lose each other's facts but can only ever
	// publish true ones.
	memo atomic.Uint64
}

const (
	// memoWindow is how many consecutive model serials one memo word
	// covers: modelHistory. A longer history stays correct
	// and re-evaluates the models that fall outside the window.
	memoWindow = 8
	memoBits   = 2 * memoWindow
	memoMask   = 1<<memoWindow - 1
	// serialMask is the serial space a window base has room for.
	// Serial arithmetic wraps in it; a condition would have to stay
	// live across 2^48 remembered models to confuse two of them.
	serialMask = 1<<(64-memoBits) - 1
)

// lookup reports whether the model with the given serial satisfies the
// node's condition, if the memo knows.
func (n *reuseNode) lookup(serial uint64) (sat, known bool) {
	w := n.memo.Load()
	off := (serial - w>>memoBits) & serialMask
	if off >= memoWindow {
		return false, false
	}
	return w>>off&1 != 0, w>>(memoWindow+off)&1 != 0
}

// record memoizes whether the model with the given serial satisfies
// the node's condition, sliding the window just far enough to hold the
// serial (facts about serials left outside are forgotten).
func (n *reuseNode) record(serial uint64, sat bool) {
	w := n.memo.Load()
	base, known, sats := w>>memoBits, w>>memoWindow&memoMask, w&memoMask
	off := (serial - base) & serialMask
	switch {
	case off < memoWindow:
	case off <= serialMask/2: // above the window: serial becomes its top
		up := off - (memoWindow - 1)
		base, known, sats, off = base+up, known>>up, sats>>up, memoWindow-1
	default: // below the window: serial becomes its base
		down := (base - serial) & serialMask
		base, known, sats, off = serial, known<<down&memoMask, sats<<down&memoMask, 0
	}
	known |= 1 << off
	if sat {
		sats |= 1 << off
	}
	n.memo.Store(base&serialMask<<memoBits | known<<memoWindow | sats)
}

// Groups returns the partition's groups. The slice is shared and must
// not be mutated.
func (p *Partition) Groups() []*Group {
	if p == nil {
		return nil
	}
	return p.groups
}

// Trivial reports whether the partition decides itself: no live
// constraints (trivially sat) or a constant-false constraint
// (trivially unsat).
func (p *Partition) Trivial() (sat, trivial bool) {
	if p == unsatPartition {
		return false, true
	}
	if p == nil || len(p.groups) == 0 {
		return true, true
	}
	return false, false
}

// Len returns the number of live constraints.
func (p *Partition) Len() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, g := range p.groups {
		n += len(g.cs)
	}
	return n
}

// AppendConstraints appends the partition's condition to dst, oldest
// first, and returns the extended slice: the constraint of every
// extension that recorded itself, which is each constraint the
// condition was built from except the constant trues and duplicates
// Extend dropped. PartitionOf of the list is the same condition. The
// unsat partition has no history, so it appends nothing: a caller that
// must tell it from the empty condition checks Trivial.
func (p *Partition) AppendConstraints(dst []*expr.Expr) []*expr.Expr {
	if p == nil {
		return dst
	}
	n := len(dst)
	for h := p.hist; h != nil; h = h.parent {
		dst = append(dst, h.c)
	}
	slices.Reverse(dst[n:])
	return dst
}

// Extend returns the partition of the condition with c appended. The
// receiver is unchanged: untouched groups are shared by pointer, and
// only the groups whose variables intersect c's are merged.
// Constant-true constraints return the receiver as is; a duplicate of
// a constraint already in its group does too. Every other extension
// records itself — c, linked to the receiver's history — so that what
// recent models were found to do with the receiver's condition is
// inherited by the result and only c is left to evaluate.
func (p *Partition) Extend(c *expr.Expr) *Partition {
	if c.IsTrue() || p == unsatPartition {
		return p
	}
	if c.IsFalse() {
		return unsatPartition
	}
	var groups []*Group
	var hist *reuseNode
	if p != nil {
		groups, hist = p.groups, p.hist
	}
	vs := c.VarSet()
	first, touched := -1, 0
	for i, g := range groups {
		if g.vs.Intersects(vs) {
			if first < 0 {
				first = i
			}
			touched++
		}
	}
	if touched == 1 && slices.Contains(groups[first].cs, c) {
		return p
	}
	np := &Partition{groups: make([]*Group, 0, len(groups)+1-touched), hist: &reuseNode{parent: hist, c: c}}
	if first < 0 {
		// Independent of everything so far: a fresh group at the end
		// (mirroring first-constraint order).
		np.groups = append(np.groups, groups...)
		np.groups = append(np.groups, newGroup(c))
		return np
	}
	merged := mergeGroups(groups[first:], c)
	for i, g := range groups {
		switch {
		case i == first:
			np.groups = append(np.groups, merged)
		case g.vs.Intersects(vs):
			// folded into merged
		default:
			np.groups = append(np.groups, g)
		}
	}
	return np
}

// PartitionOf partitions a whole constraint slice from scratch (the
// non-incremental entry point used by the slice-based Sat API and by
// callers that do not carry a partition).
func PartitionOf(cs []*expr.Expr) *Partition {
	var p *Partition
	for _, c := range cs {
		p = p.Extend(c)
	}
	return p
}

// independentGroups is the non-incremental view of the partition,
// retained for tests and benchmarks: constraints that share variables
// (transitively) are grouped, groups ordered by first constraint.
func independentGroups(constraints []*expr.Expr) [][]*expr.Expr {
	p := PartitionOf(constraints)
	if p == nil {
		return nil
	}
	out := make([][]*expr.Expr, 0, len(p.groups))
	for _, g := range p.groups {
		out = append(out, g.cs)
	}
	return out
}
