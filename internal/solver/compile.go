package solver

import (
	"cmp"
	"math/bits"
	"slices"

	"overify/internal/expr"
	"overify/internal/ir"
)

// tape is a group compiled for the backtracking search: every DAG node
// reachable from the group's constraints becomes one slot of a flat
// topo-ordered program, evaluated into a scratch value array — no
// recursion, no map[*Expr] memo, no per-node generation checks. Each
// variable carries a watch list (the topo-ordered slots depending on
// it), so assigning or retracting one variable re-evaluates exactly the
// sub-tape that can change. That is the search's one evaluator for
// commits (tapeState.recompute); the unary filter, which asks about every
// value of one byte at once, has the other (tapeState.filterColumn,
// column.go).
//
// A tape's slices alias its tapeScratch and are valid only until the
// scratch compiles the next group.
type tape struct {
	ops   []tapeOp
	roots []int32     // per constraint: slot holding its value
	vars  []*expr.Var // group variables sorted by name (search order)
	watch [][]int32   // per var index: dependent slots, topo-ordered
	// cmasks is the per-constraint variable bitmask (var-index words),
	// used for the only-unassigned-variable test in unary filtering.
	cmasks [][]uint64
	// csub is the per-constraint slot bitmask (slot-index words): the
	// sub-DAG reachable from the constraint's root. It is what the unary
	// filter's column list is cut from — watch[vi] ∩ csub[ci], the slots
	// of the one constraint being filtered that the open byte reaches —
	// and what bounds a propagation sweep to one constraint.
	csub   [][]uint64
	nwords int
}

type tapeOp struct {
	kind       expr.Kind
	op         ir.Op
	bits       int32
	a0, a1, a2 int32
	vi         int32    // KVar: var index
	val        uint64   // KConst
	table      []uint64 // KRead
}

// tapeScratch holds the growable buffers one solver reuses across all
// its searches, so compiling a group allocates only when a group
// outgrows everything compiled before it. A Solver owns one (solvers
// are single-goroutine; one search runs at a time).
type tapeScratch struct {
	t            tape
	slotOf       map[*expr.Expr]int32
	deps         []uint64 // per-slot var masks, nwords stride
	counts       []int32
	watchBacking []int32
	cmaskBacking []uint64
	csubBacking  []uint64

	// tapeState buffers.
	known    []bool
	val      []uint64
	assigned []bool
	avals    []uint64
	amask    []uint64
	col      columnScratch
}

// compileGroup flattens the group's constraint DAG into a tape using
// fresh buffers (tests and the fuzz target use this entry point; the
// solver goes through its scratch).
func compileGroup(g *Group) *tape {
	return (&tapeScratch{}).compile(g.vs, g.cs)
}

// compile flattens the DAG of the constraints cs — a group's, or the
// ones a seeded search still has to filter by — into the scratch's
// tape. vs is the group's variable set, which holds every variable cs
// mentions.
func (sc *tapeScratch) compile(vs *expr.VarSet, cs []*expr.Expr) *tape {
	t := &sc.t
	t.vars = append(t.vars[:0], vs.Vars()...)
	vars := t.vars
	slices.SortFunc(vars, func(a, b *expr.Var) int { return cmp.Compare(a.Name, b.Name) })
	// Var index by linear scan: groups have at most a handful of
	// variables, so this beats a map and allocates nothing.
	varIdx := func(v *expr.Var) int32 {
		for i, w := range vars {
			if w == v {
				return int32(i)
			}
		}
		panic("solver: variable missing from group set")
	}
	nwords := (len(vars) + 63) / 64
	t.nwords = nwords
	t.ops = t.ops[:0]
	t.roots = t.roots[:0]
	if sc.slotOf == nil {
		sc.slotOf = make(map[*expr.Expr]int32, 64)
	} else {
		clear(sc.slotOf)
	}
	slotOf := sc.slotOf
	sc.deps = sc.deps[:0]

	var emit func(e *expr.Expr) int32
	emit = func(e *expr.Expr) int32 {
		if s, ok := slotOf[e]; ok {
			return s
		}
		op := tapeOp{kind: e.Kind, op: e.Op, bits: int32(e.Bits), val: e.Val, table: e.Table, a0: -1, a1: -1, a2: -1}
		var d [1]uint64
		dw := d[:]
		if nwords > 1 {
			dw = make([]uint64, nwords)
		}
		switch e.Kind {
		case expr.KVar:
			vi := varIdx(e.V)
			op.vi = vi
			dw[vi/64] |= 1 << uint(vi%64)
		case expr.KConst:
		default:
			args := [3]int32{-1, -1, -1}
			for i, a := range e.Args {
				s := emit(a)
				args[i] = s
				for w := 0; w < nwords; w++ {
					dw[w] |= sc.deps[int(s)*nwords+w]
				}
			}
			op.a0, op.a1, op.a2 = args[0], args[1], args[2]
		}
		slot := int32(len(t.ops))
		t.ops = append(t.ops, op)
		sc.deps = append(sc.deps, dw...)
		slotOf[e] = slot
		return slot
	}
	for _, c := range cs {
		t.roots = append(t.roots, emit(c))
	}

	// Watch lists carved out of one exact-size backing array: count
	// per-var dependents, then fill in emission (= topo) order.
	sc.counts = zeroed(sc.counts, len(vars))
	counts := sc.counts
	total := int32(0)
	for s := 0; s < len(t.ops); s++ {
		for vi := range vars {
			if sc.deps[s*nwords+vi/64]&(1<<uint(vi%64)) != 0 {
				counts[vi]++
				total++
			}
		}
	}
	if cap(sc.watchBacking) < int(total) {
		sc.watchBacking = make([]int32, total)
	}
	backing := sc.watchBacking[:total]
	if cap(t.watch) < len(vars) {
		t.watch = make([][]int32, len(vars))
	}
	t.watch = t.watch[:len(vars)]
	off := int32(0)
	for vi, n := range counts {
		t.watch[vi] = backing[off : off : off+n]
		off += n
	}
	for s := 0; s < len(t.ops); s++ {
		for vi := range vars {
			if sc.deps[s*nwords+vi/64]&(1<<uint(vi%64)) != 0 {
				t.watch[vi] = append(t.watch[vi], int32(s))
			}
		}
	}

	sc.cmaskBacking = zeroed(sc.cmaskBacking, len(cs)*nwords)
	cmaskBacking := sc.cmaskBacking
	if cap(t.cmasks) < len(cs) {
		t.cmasks = make([][]uint64, len(cs))
	}
	t.cmasks = t.cmasks[:len(cs)]
	for i, c := range cs {
		mask := cmaskBacking[i*nwords : (i+1)*nwords]
		for _, v := range c.VarSet().Vars() {
			vi := varIdx(v)
			mask[vi/64] |= 1 << uint(vi%64)
		}
		t.cmasks[i] = mask
	}

	// Constraint sub-DAG bitsets: mark each root, then sweep downward —
	// operands always sit at smaller slot indices, so one descending pass
	// closes the reachable set.
	swords := (len(t.ops) + 63) / 64
	sc.csubBacking = zeroed(sc.csubBacking, len(cs)*swords)
	csubBacking := sc.csubBacking
	if cap(t.csub) < len(cs) {
		t.csub = make([][]uint64, len(cs))
	}
	t.csub = t.csub[:len(cs)]
	for ci := range cs {
		sub := csubBacking[ci*swords : (ci+1)*swords]
		r := t.roots[ci]
		sub[r>>6] |= 1 << uint(r&63)
		for s := r; s >= 0; s-- {
			if sub[s>>6]&(1<<uint(s&63)) == 0 {
				continue
			}
			op := &t.ops[s]
			if op.a0 >= 0 {
				sub[op.a0>>6] |= 1 << uint(op.a0&63)
			}
			if op.a1 >= 0 {
				sub[op.a1>>6] |= 1 << uint(op.a1&63)
			}
			if op.a2 >= 0 {
				sub[op.a2>>6] |= 1 << uint(op.a2&63)
			}
		}
		t.csub[ci] = sub
	}
	return t
}

// tapeState is the mutable evaluation state over a tape: three-valued
// slot results (known flag + value) plus the current assignment. Its
// semantics match expr.PartialEvaluator exactly (including the known-
// side short circuits), which the differential fuzz target asserts.
// There is no what-if shadow of it: a question about values not
// committed is a column evaluation (filterColumn), which reads known and
// val and writes neither.
type tapeState struct {
	t        *tape
	known    []bool
	val      []uint64
	assigned []bool
	avals    []uint64
	amask    []uint64       // assigned-variable bitmask (var-index words)
	col      *columnScratch // filterColumn's buffers
}

// newTapeState builds evaluation state with fresh buffers (tests and
// the fuzz target; the solver reuses its scratch via tapeStateFrom).
func newTapeState(t *tape) *tapeState {
	return tapeStateFrom(&tapeScratch{}, t)
}

// tapeStateFrom builds evaluation state over the scratch's buffers and
// runs the initial full evaluation pass.
func tapeStateFrom(sc *tapeScratch, t *tape) *tapeState {
	sc.known = zeroed(sc.known, len(t.ops))
	sc.val = zeroed(sc.val, len(t.ops))
	sc.assigned = zeroed(sc.assigned, len(t.vars))
	sc.avals = zeroed(sc.avals, len(t.vars))
	sc.amask = zeroed(sc.amask, t.nwords)
	sc.col.off, sc.col.list = zeroed(sc.col.off, len(t.ops)), sc.col.list[:0]
	ts := &tapeState{
		t:        t,
		known:    sc.known,
		val:      sc.val,
		assigned: sc.assigned,
		avals:    sc.avals,
		amask:    sc.amask,
		col:      &sc.col,
	}
	for s := range t.ops {
		ts.recompute(int32(s))
	}
	return ts
}

// zeroed returns b as n zero elements, reallocating only to grow.
func zeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// assign binds var vi and re-evaluates its watched sub-tape.
func (ts *tapeState) assign(vi int32, v uint64) {
	ts.assigned[vi] = true
	ts.avals[vi] = v
	ts.amask[vi/64] |= 1 << uint(vi%64)
	for _, s := range ts.t.watch[vi] {
		ts.recompute(s)
	}
}

// unassign retracts var vi and re-evaluates its watched sub-tape.
func (ts *tapeState) unassign(vi int32) {
	ts.assigned[vi] = false
	ts.amask[vi/64] &^= 1 << uint(vi%64)
	for _, s := range ts.t.watch[vi] {
		ts.recompute(s)
	}
}

// root returns constraint ci's three-valued result.
func (ts *tapeState) root(ci int) (known bool, val uint64) {
	s := ts.t.roots[ci]
	return ts.known[s], ts.val[s]
}

// unassignedIn counts the constraint's variables not currently
// assigned, and whether vi is among them.
func (ts *tapeState) unassignedIn(ci int, vi int32) (n int, hasVi bool) {
	mask := ts.t.cmasks[ci]
	for w, b := range mask {
		un := b &^ ts.amask[w]
		n += bits.OnesCount64(un)
		if int32(w) == vi/64 && un&(1<<uint(vi%64)) != 0 {
			hasVi = true
		}
	}
	return n, hasVi
}

// mentions reports whether constraint ci mentions variable vi.
func (t *tape) mentions(ci int, vi int32) bool {
	return t.cmasks[ci][vi/64]&(1<<uint(vi%64)) != 0
}

// recompute re-evaluates one slot from its operands' current results.
func (ts *tapeState) recompute(s int32) {
	op := &ts.t.ops[s]
	var known bool
	var val uint64
	switch op.kind {
	case expr.KConst:
		known, val = true, op.val
	case expr.KVar:
		if ts.assigned[op.vi] {
			known, val = true, ts.avals[op.vi]
		}
	case expr.KBin:
		ak, av := ts.known[op.a0], ts.val[op.a0]
		bk, bv := ts.known[op.a1], ts.val[op.a1]
		switch {
		case ak && bk:
			r, ok := ir.EvalBin(op.op, int(op.bits), av, bv)
			if !ok {
				r = 0
			}
			known, val = true, r
		default:
			// Known-side short circuits, mirroring PartialEvaluator.
			switch op.op {
			case ir.OpAnd:
				if (ak && av == 0) || (bk && bv == 0) {
					known, val = true, 0
				}
			case ir.OpOr:
				ones := ir.Mask(int(op.bits), ^uint64(0))
				if (ak && av == ones) || (bk && bv == ones) {
					known, val = true, ones
				}
			case ir.OpMul:
				if (ak && av == 0) || (bk && bv == 0) {
					known, val = true, 0
				}
			}
		}
	case expr.KCmp:
		if ts.known[op.a0] && ts.known[op.a1] {
			known = true
			if ir.EvalCmp(op.op, int(ts.t.ops[op.a0].bits), ts.val[op.a0], ts.val[op.a1]) {
				val = 1
			}
		}
	case expr.KSelect:
		ck, cv := ts.known[op.a0], ts.val[op.a0]
		if ck {
			if cv != 0 {
				known, val = ts.known[op.a1], ts.val[op.a1]
			} else {
				known, val = ts.known[op.a2], ts.val[op.a2]
			}
		} else if ts.known[op.a1] && ts.known[op.a2] && ts.val[op.a1] == ts.val[op.a2] {
			known, val = true, ts.val[op.a1]
		}
	case expr.KCast:
		if ts.known[op.a0] {
			known = true
			val = ir.EvalCast(op.op, int(ts.t.ops[op.a0].bits), int(op.bits), ts.val[op.a0])
		}
	case expr.KRead:
		if ts.known[op.a0] {
			known = true
			if idx := ts.val[op.a0]; idx < uint64(len(op.table)) {
				val = op.table[idx]
			}
		}
	}
	if known {
		val = ir.Mask(int(op.bits), val)
	}
	ts.known[s] = known
	ts.val[s] = val
}
