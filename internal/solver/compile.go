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
// slot carries a reader list (the slots that read it, ascending), so
// assigning or retracting one variable re-evaluates its own slot and
// then only the readers of a slot whose result changed: a byte that
// reaches a long chain through a compare re-evaluates the chain only
// when the compare flips (tapeState.rewalk). That is the search's one
// evaluator for commits (tapeState.recompute); the unary filter, which
// asks about every value of one byte at once, has the other
// (tapeState.filterColumn, column.go). Each variable also carries a
// watch list (the topo-ordered slots depending on it), which the live
// sets and the filter's column list are read through.
//
// Forward checking works on live variables. On a tape of at most 64
// variables each slot also has a live set, one word: the unassigned
// variables its value still depends on under the current assignment —
// none for a known slot, the chosen arm's for a select whose condition
// is known, the union of its operands' otherwise. So a constraint whose
// select conditions are decided, or whose and/or/mul is decided by one
// known side, is unary — and filtered — in the one byte it still reads
// while the bytes it no longer reads are open (tapeState.unassignedIn).
// A tape of more variables, which no ledger workload compiles, keeps the
// static test: the variables a constraint mentions less the assigned
// ones.
//
// A tape's slices alias its tapeScratch and are valid only until the
// scratch compiles the next group.
type tape struct {
	ops   []tapeOp
	roots []int32     // per constraint: slot holding its value
	vars  []*expr.Var // group variables sorted by name (search order)
	watch [][]int32   // per var index: dependent slots, topo-ordered
	// users[userOff[s]:userOff[s+1]] are the slots that read slot s,
	// ascending (CSR). A variable's own slot heads its watch list, since
	// every slot that depends on it reads it from below; a second slot of
	// the same variable — a group not built through one builder — is
	// listed as a reader of the first, so a binding reaches it too.
	userOff []int32
	users   []int32
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
	// tracksLive is set on a tape of at most 64 variables, one word's
	// worth: its state keeps live sets (tapeState.live), and the unary
	// filter's test reads them in place of cmasks.
	tracksLive bool
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
	live     []uint64
	dirty    []uint64
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
			vi := int32(t.varIndex(e.V))
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
	t.tracksLive = len(vars) <= 64

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
		sc.watchBacking = make([]int32, total, max(int(total), 2*cap(sc.watchBacking)))
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
	t.readers()

	sc.cmaskBacking = zeroed(sc.cmaskBacking, len(cs)*nwords)
	cmaskBacking := sc.cmaskBacking
	if cap(t.cmasks) < len(cs) {
		t.cmasks = make([][]uint64, len(cs))
	}
	t.cmasks = t.cmasks[:len(cs)]
	for i, c := range cs {
		mask := cmaskBacking[i*nwords : (i+1)*nwords]
		for _, v := range c.VarSet().Vars() {
			vi := t.varIndex(v)
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

// varIndex is v's index on the tape, by linear scan: groups have at most
// a handful of variables, so this beats a map and allocates nothing.
func (t *tape) varIndex(v *expr.Var) int {
	for i, w := range t.vars {
		if w == v {
			return i
		}
	}
	panic("solver: variable missing from group set")
}

// readers fills the tape's reader lists from the operands its slots
// record: count each slot's readers, sum the counts into each list's
// end, then place every reader walking the slots downward, so each list
// comes out ascending and userOff[s] ends at its start.
func (t *tape) readers() {
	n := len(t.ops)
	t.userOff = zeroed(t.userOff, n+1)
	off := t.userOff
	for u := range t.ops {
		for _, a := range t.read(int32(u)) {
			if a >= 0 {
				off[a]++
			}
		}
	}
	for s := 1; s <= n; s++ {
		off[s] += off[s-1]
	}
	t.users = zeroed(t.users, int(off[n]))
	for u := int32(n - 1); u >= 0; u-- {
		for _, a := range t.read(u) {
			if a >= 0 {
				off[a]--
				t.users[off[a]] = u
			}
		}
	}
}

// read returns the slots slot u reads, -1 for none: its operands, or
// for a variable's second slot the variable's own.
func (t *tape) read(u int32) [3]int32 {
	op := &t.ops[u]
	if op.kind == expr.KVar {
		if s := t.watch[op.vi][0]; s != u {
			return [3]int32{s, -1, -1}
		}
	}
	return [3]int32{op.a0, op.a1, op.a2}
}

// tapeState is the mutable evaluation state over a tape: three-valued
// slot results (known flag + value) plus the current assignment. Its
// semantics match expr.PartialEvaluator exactly (including the known-
// side short circuits), which the differential fuzz target asserts. On
// a tape that tracks them, each slot's live set rides beside known and
// val, refreshed when read (TestLiveSetMatchesReference).
// There is no what-if shadow of it: a question about values not
// committed is a column evaluation (filterColumn), which reads known and
// val and writes neither.
type tapeState struct {
	t        *tape
	known    []bool
	val      []uint64
	live     []uint64 // per slot: live variable bitmask (tracksLive tapes only), current once freshened
	stale    uint64   // variables whose watch lists' live sets are out of date
	dirty    []uint64 // slot bitmask: rewalk's work list, empty between calls
	evals    int64    // slots rewalk evaluated (test instrumentation)
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
	if t.tracksLive {
		sc.live = zeroed(sc.live, len(t.ops))
	}
	sc.dirty = zeroed(sc.dirty, (len(t.ops)+63)/64)
	sc.assigned = zeroed(sc.assigned, len(t.vars))
	sc.avals = zeroed(sc.avals, len(t.vars))
	sc.amask = zeroed(sc.amask, t.nwords)
	sc.col.off, sc.col.list = zeroed(sc.col.off, len(t.ops)), sc.col.list[:0]
	ts := &tapeState{
		t:        t,
		known:    sc.known,
		val:      sc.val,
		live:     sc.live,
		dirty:    sc.dirty,
		assigned: sc.assigned,
		avals:    sc.avals,
		amask:    sc.amask,
		col:      &sc.col,
	}
	for s := range t.ops {
		ts.recompute(int32(s))
		if t.tracksLive {
			ts.relive(int32(s))
		}
	}
	return ts
}

// zeroed returns b as n zero elements, reallocating only to grow, and
// then to at least twice the old capacity: a solver's tapes grow a few
// slots at a time over a job, and an exact-size buffer would be
// reallocated at each.
func zeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n, max(n, 2*cap(b)))
	}
	b = b[:n]
	clear(b)
	return b
}

// assign binds var vi and re-evaluates what the binding changes.
func (ts *tapeState) assign(vi int32, v uint64) {
	ts.assigned[vi] = true
	ts.avals[vi] = v
	ts.amask[vi/64] |= 1 << uint(vi%64)
	ts.rebind(vi)
}

// unassign retracts var vi and re-evaluates what the retraction changes.
func (ts *tapeState) unassign(vi int32) {
	ts.assigned[vi] = false
	ts.amask[vi/64] &^= 1 << uint(vi%64)
	ts.rebind(vi)
}

// rebind re-evaluates from vi's own slot, the head of its watch list
// (rewalk); a variable no constraint on the tape mentions has none. On a
// tape that tracks live sets it marks vi's watch list's live sets stale,
// to be refreshed when the filter reads them (freshen): most values the
// search binds fail a constraint at once and are replaced without a
// filter. A tape of more than 64 variables pays the branch and nothing
// else.
func (ts *tapeState) rebind(vi int32) {
	if w := ts.t.watch[vi]; len(w) > 0 {
		ts.rewalk(w[0])
	}
	if ts.t.tracksLive {
		ts.stale |= 1 << uint(vi)
	}
}

// rewalk re-evaluates slot s0 and every slot a change reaches: it pops
// the dirty slots in ascending order, which is topological, and marks a
// slot's readers dirty only when recompute changed the slot's result.
// recompute is a pure function of its operands' results, so a slot none
// of whose operands changed would come out as it is: the tape ends
// exactly as re-evaluating the variable's whole watch list leaves it
// (TestIncrementalRecomputeMatchesFullSweep), having evaluated only
// what moved. Every reader sits above the slot it reads, so the words
// below the one being popped are clear, and hi bounds the walk.
func (ts *tapeState) rewalk(s0 int32) {
	t, dirty := ts.t, ts.dirty
	dirty[s0>>6] |= 1 << uint(s0&63)
	hi := s0 >> 6
	for w := s0 >> 6; w <= hi; w++ {
		for dirty[w] != 0 {
			s := w<<6 | int32(bits.TrailingZeros64(dirty[w]))
			dirty[w] &= dirty[w] - 1
			ts.evals++
			if !ts.recompute(s) {
				continue
			}
			users := t.users[t.userOff[s]:t.userOff[s+1]]
			for _, u := range users {
				dirty[u>>6] |= 1 << uint(u&63)
			}
			if len(users) > 0 {
				hi = max(hi, users[len(users)-1]>>6)
			}
		}
	}
}

// freshen brings the live sets up to date. It is called on every
// filter, so it inlines to one test and leaves the walk to refresh.
func (ts *tapeState) freshen() {
	if ts.stale != 0 {
		ts.refresh()
	}
}

// refresh walks the watch list of each variable bound or retracted since
// the last call again with relive, which reads the known/val recompute
// already set. The order of the lists does not matter. A slot is last
// walked in the list of the last of its stale variables to be walked;
// each operand it reads depends on a subset of those variables, so the
// operand was last walked in an earlier list, or earlier in the same
// topo-ordered one.
func (ts *tapeState) refresh() {
	for ts.stale != 0 {
		vi := bits.TrailingZeros64(ts.stale)
		ts.stale &= ts.stale - 1
		for _, s := range ts.t.watch[vi] {
			ts.relive(s)
		}
	}
}

// rootLive returns constraint ci's live set (a tape that tracks them).
func (ts *tapeState) rootLive(ci int) uint64 {
	ts.freshen()
	return ts.live[ts.t.roots[ci]]
}

// root returns constraint ci's three-valued result.
func (ts *tapeState) root(ci int) (known bool, val uint64) {
	s := ts.t.roots[ci]
	return ts.known[s], ts.val[s]
}

// unassignedIn counts the unassigned variables the constraint still
// reads, and whether vi is among them: its root's live set on a tape that
// tracks them, otherwise the variables it mentions less the assigned ones.
func (ts *tapeState) unassignedIn(ci int, vi int32) (n int, hasVi bool) {
	if ts.t.tracksLive {
		lv := ts.rootLive(ci)
		return bits.OnesCount64(lv), lv&(1<<uint(vi)) != 0
	}
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

// recompute re-evaluates one slot from its operands' current results
// and reports whether its result changed. An unknown result reads 0, so
// a change is a change of what a reader can see.
func (ts *tapeState) recompute(s int32) bool {
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
	} else {
		val = 0
	}
	if ts.known[s] == known && ts.val[s] == val {
		return false
	}
	ts.known[s] = known
	ts.val[s] = val
	return true
}

// relive sets slot s's live set from its freshly recomputed result and
// its operands' live sets: none when the slot is known, the chosen arm's
// for a select whose condition is known, the union of its operands'
// otherwise.
func (ts *tapeState) relive(s int32) {
	op := &ts.t.ops[s]
	var lv uint64
	switch {
	case ts.known[s]:
	case op.kind == expr.KVar:
		lv = 1 << uint(op.vi)
	case op.kind == expr.KSelect && ts.known[op.a0]:
		if ts.val[op.a0] != 0 {
			lv = ts.live[op.a1]
		} else {
			lv = ts.live[op.a2]
		}
	default:
		for _, a := range [3]int32{op.a0, op.a1, op.a2} {
			if a >= 0 {
				lv |= ts.live[a]
			}
		}
	}
	ts.live[s] = lv
}
