package solver

import (
	"math/bits"
	"sort"

	"overify/internal/expr"
	"overify/internal/ir"
)

// tape is a group compiled for the backtracking search: every DAG node
// reachable from the group's constraints becomes one slot of a flat
// topo-ordered program, evaluated into a scratch value array — no
// recursion, no map[*Expr] memo, no per-node generation checks. Each
// variable carries a watch list (the topo-ordered slots depending on
// it), so assigning or retracting one variable re-evaluates exactly the
// sub-tape that can change.
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
	// sub-DAG reachable from the constraint's root. Unary-filter probes
	// re-evaluate only watch[vi] ∩ csub[ci] — the slots of the one
	// constraint being filtered — mirroring what the pre-tape evaluator
	// paid per probe (one constraint tree, not the variable's whole
	// watch list).
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
	ovKnown  []bool
	ovVal    []uint64
	ovStamp  []uint64
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
	sort.Slice(vars, func(i, j int) bool { return vars[i].Name < vars[j].Name })
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
	if cap(sc.counts) < len(vars) {
		sc.counts = make([]int32, len(vars))
	}
	counts := sc.counts[:len(vars)]
	for i := range counts {
		counts[i] = 0
	}
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

	if cap(sc.cmaskBacking) < len(cs)*nwords {
		sc.cmaskBacking = make([]uint64, len(cs)*nwords)
	}
	cmaskBacking := sc.cmaskBacking[:len(cs)*nwords]
	for i := range cmaskBacking {
		cmaskBacking[i] = 0
	}
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
	if cap(sc.csubBacking) < len(cs)*swords {
		sc.csubBacking = make([]uint64, len(cs)*swords)
	}
	csubBacking := sc.csubBacking[:len(cs)*swords]
	for i := range csubBacking {
		csubBacking[i] = 0
	}
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
type tapeState struct {
	t        *tape
	known    []bool
	val      []uint64
	assigned []bool
	avals    []uint64
	amask    []uint64 // assigned-variable bitmask (var-index words)
	work     int64    // slot evaluations (a cost statistic, not the budget)

	// Probe overlay: epoch-stamped shadow results for what-if queries
	// (probe) that never touch the committed known/val arrays, so a
	// candidate value can be tested against one constraint without the
	// assign/recompute-everything/unassign/recompute-everything round
	// trip. A slot's overlay entry is valid only when its stamp equals
	// the current epoch.
	ovKnown []bool
	ovVal   []uint64
	ovStamp []uint64
	epoch   uint64
}

// newTapeState builds evaluation state with fresh buffers (tests and
// the fuzz target; the solver reuses its scratch via tapeStateFrom).
func newTapeState(t *tape) *tapeState {
	return tapeStateFrom(&tapeScratch{}, t)
}

// tapeStateFrom builds evaluation state over the scratch's buffers and
// runs the initial full evaluation pass.
func tapeStateFrom(sc *tapeScratch, t *tape) *tapeState {
	grow := func(b []bool, n int) []bool {
		if cap(b) < n {
			return make([]bool, n)
		}
		b = b[:n]
		for i := range b {
			b[i] = false
		}
		return b
	}
	growU := func(u []uint64, n int) []uint64 {
		if cap(u) < n {
			return make([]uint64, n)
		}
		u = u[:n]
		for i := range u {
			u[i] = 0
		}
		return u
	}
	sc.known = grow(sc.known, len(t.ops))
	sc.val = growU(sc.val, len(t.ops))
	sc.assigned = grow(sc.assigned, len(t.vars))
	sc.avals = growU(sc.avals, len(t.vars))
	sc.amask = growU(sc.amask, t.nwords)
	sc.ovKnown = grow(sc.ovKnown, len(t.ops))
	sc.ovVal = growU(sc.ovVal, len(t.ops))
	sc.ovStamp = growU(sc.ovStamp, len(t.ops))
	ts := &tapeState{
		t:        t,
		known:    sc.known,
		val:      sc.val,
		assigned: sc.assigned,
		avals:    sc.avals,
		amask:    sc.amask,
		ovKnown:  sc.ovKnown,
		ovVal:    sc.ovVal,
		ovStamp:  sc.ovStamp,
	}
	for s := range t.ops {
		ts.recompute(int32(s))
	}
	return ts
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

// recompute re-evaluates one slot from its operands' current results.
func (ts *tapeState) recompute(s int32) {
	ts.work++
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

// probe answers "what would constraint ci evaluate to if unassigned var
// vi held val?" without committing the assignment. Only the slots of
// ci's sub-DAG that depend on vi (watch[vi] ∩ csub[ci], in topo order)
// are re-evaluated, into the overlay; everything else reads its
// committed result. Equivalent to assign(vi, val); root(ci);
// unassign(vi), at the cost of one constraint instead of the variable's
// whole watch list twice — the unary filter runs 256 probes per
// (constraint, variable) pair, so this is the search's hot path.
func (ts *tapeState) probe(ci int, vi int32, val uint64) (known bool, r uint64) {
	ts.epoch++
	sub := ts.t.csub[ci]
	for _, s := range ts.t.watch[vi] {
		if sub[s>>6]&(1<<uint(s&63)) == 0 {
			continue
		}
		ts.recomputeOv(s, vi, val)
	}
	root := ts.t.roots[ci]
	if ts.ovStamp[root] == ts.epoch {
		return ts.ovKnown[root], ts.ovVal[root]
	}
	return ts.known[root], ts.val[root]
}

// recomputeOv is recompute into the overlay: operands read their
// overlay result when stamped this epoch (they depend on the probed
// variable and were just re-evaluated — watch lists are topo-ordered)
// and their committed result otherwise, and the probed variable's slot
// evaluates to the probe value. The semantics switch must mirror
// recompute exactly; the differential fuzz target asserts it.
func (ts *tapeState) recomputeOv(s, pvi int32, pval uint64) {
	ts.work++
	op := &ts.t.ops[s]
	get := func(a int32) (bool, uint64) {
		if ts.ovStamp[a] == ts.epoch {
			return ts.ovKnown[a], ts.ovVal[a]
		}
		return ts.known[a], ts.val[a]
	}
	var known bool
	var val uint64
	switch op.kind {
	case expr.KConst:
		known, val = true, op.val
	case expr.KVar:
		if op.vi == pvi {
			known, val = true, pval
		} else if ts.assigned[op.vi] {
			known, val = true, ts.avals[op.vi]
		}
	case expr.KBin:
		ak, av := get(op.a0)
		bk, bv := get(op.a1)
		switch {
		case ak && bk:
			r, ok := ir.EvalBin(op.op, int(op.bits), av, bv)
			if !ok {
				r = 0
			}
			known, val = true, r
		default:
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
		ak, av := get(op.a0)
		bk, bv := get(op.a1)
		if ak && bk {
			known = true
			if ir.EvalCmp(op.op, int(ts.t.ops[op.a0].bits), av, bv) {
				val = 1
			}
		}
	case expr.KSelect:
		ck, cv := get(op.a0)
		tk, tv := get(op.a1)
		fk, fv := get(op.a2)
		if ck {
			if cv != 0 {
				known, val = tk, tv
			} else {
				known, val = fk, fv
			}
		} else if tk && fk && tv == fv {
			known, val = true, tv
		}
	case expr.KCast:
		if ak, av := get(op.a0); ak {
			known = true
			val = ir.EvalCast(op.op, int(ts.t.ops[op.a0].bits), int(op.bits), av)
		}
	case expr.KRead:
		if ak, av := get(op.a0); ak {
			known = true
			if av < uint64(len(op.table)) {
				val = op.table[av]
			}
		}
	}
	if known {
		val = ir.Mask(int(op.bits), val)
	}
	ts.ovKnown[s] = known
	ts.ovVal[s] = val
	ts.ovStamp[s] = ts.epoch
}
