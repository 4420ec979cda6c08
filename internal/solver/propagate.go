package solver

import (
	"overify/internal/expr"
	"overify/internal/ir"
)

// Bounded value-set propagation over a compiled tape, run once per
// search before any backtracking. The per-variable enumeration the
// search does is blind to arithmetic structure: a constraint like
//
//	uge(sext(add(ite(...), 1)), 4)
//
// only ever takes values {1..4} on the inner add no matter what the
// input bytes are, so it can be refuted (or its variables' domains
// collapsed to the few feasible bytes) without visiting 256^k
// assignments. basename's "last slash index" groups are exactly this
// shape and blow any per-assignment budget under plain enumeration.
//
// The analysis keeps two value sets per tape slot, each widened to
// "top" (unknown) beyond vsetCap values:
//
//   - fwd: values the slot can take, computed bottom-up over the
//     current domains.
//   - dem: values consistent with every constraint seen so far,
//     computed top-down from "each constraint root must be non-zero".
//
// The invariant both maintain: in any assignment satisfying the WHOLE
// group, every slot's value lies in fwd[s] ∩ dem[s]. Constraints share
// slots (the tape is hash-consed group-wide), so a demand derived from
// one constraint narrows what every other constraint sees — dem
// persists across constraints and rounds, shrinking monotonically.
// When any set (or a variable domain) empties, no satisfying
// assignment exists and the group is unsat with zero search; surviving
// variable demands prune domains for the backtracking search.
//
// The whole pass is a deterministic function of the group, so group
// verdicts stay evaluator- and schedule-independent; its cost is
// bounded by rounds × tape size × vsetPairCap, independent of how many
// assignments the search would have tried.
//
// Most of those steps would repeat themselves: a slot shared by many
// constraints is swept once per constraint per round, and its inputs
// have usually not moved since the last sweep. So a run keeps a clock
// and stamps when each slot's forward set, each slot's demand set and
// each variable's enumeration last changed, and a slot's forward and
// demand steps are skipped when none of their inputs changed since they
// last ran (settled). That is exact: forward is a pure function of its
// operands' sets, its demand and the variable enumerations, and demand
// only intersects — idempotent — into sets and domains that only shrink.
// Because every set only shrinks within a run, a set the same size as
// before is the same set, so comparing sizes detects every change.
// TestPropagateStampsMatchFullSweep holds the gated run to the ungated
// sweep.
//
// The storage is the solver's (Solver.prop, beside its tapeScratch): set
// headers and variable enumerations are reused from search to search,
// and a set's values live in a vsetCap-word array carved from one arena
// the first time the set holds anything (most slots widen to top or are
// never demanded of, and never take one). A run resets the arena, not
// frees it: a second run over a tape no larger allocates nothing.

const (
	// vsetCap is the widening threshold: a slot tracking more than this
	// many distinct values becomes top (unknown).
	vsetCap = 32
	// vsetPairCap bounds the operand cross-product enumerated per slot;
	// larger products widen to top instead of being computed.
	vsetPairCap = 4096
	// vsetRangeCap bounds the full-range enumeration fallback for
	// narrow slots whose forward set widened to top. Variables are at
	// most 8 bits wide, so 256 covers every byte-valued slot; it is
	// deliberately larger than vsetCap because a range enumeration is
	// transient (one demand pass) rather than stored per slot.
	vsetRangeCap = 256
	// propMaxRounds bounds full sweeps; each round re-runs every
	// constraint over the narrowed sets. Chain-shaped contradictions
	// (constraint A narrows a shared node, B refutes on it) settle in
	// two; the cap only exists to bound adversarial groups.
	propMaxRounds = 8
)

// vset is a small finite value set, or top (every value possible).
type vset struct {
	top  bool
	vals []uint64 // deduped, unordered, len ≤ vsetCap; nil or vsetCap words of an arena
}

// vsetArena hands out the vsetCap-word arrays sets keep their values in.
type vsetArena struct {
	buf    []uint64
	carved int // words handed out since the last reset, over every block
}

func (a *vsetArena) carve() []uint64 {
	if len(a.buf)+vsetCap > cap(a.buf) {
		a.buf = make([]uint64, 0, 2*cap(a.buf)+8*vsetCap) // sets carved so far keep the old block
	}
	n := len(a.buf)
	a.buf = a.buf[:n+vsetCap]
	a.carved += vsetCap
	return a.buf[n : n : n+vsetCap]
}

// settle ends a run: an arena the run outgrew becomes one block as large
// as everything the run carved, so a run of the same size never grows it.
func (a *vsetArena) settle() {
	if a.carved > cap(a.buf) {
		a.buf = make([]uint64, 0, a.carved)
	}
	a.buf, a.carved = a.buf[:0], 0
}

func (s *vset) add(v uint64, a *vsetArena) {
	if s.top {
		return
	}
	for _, x := range s.vals {
		if x == v {
			return
		}
	}
	if len(s.vals) >= vsetCap {
		s.top = true
		s.vals = s.vals[:0]
		return
	}
	if s.vals == nil {
		s.vals = a.carve()
	}
	s.vals = append(s.vals, v)
}

func (s *vset) has(v uint64) bool {
	if s.top {
		return true
	}
	for _, x := range s.vals {
		if x == v {
			return true
		}
	}
	return false
}

func (s *vset) empty() bool { return !s.top && len(s.vals) == 0 }

// intersect keeps only the values of s that d also allows, reporting
// whether anything was removed.
func (s *vset) intersect(d *vset, a *vsetArena) bool {
	if d.top {
		return false
	}
	if s.top {
		s.top = false
		if s.vals == nil && len(d.vals) > 0 {
			s.vals = a.carve()
		}
		s.vals = append(s.vals[:0], d.vals...)
		return true
	}
	kept := s.vals[:0]
	for _, x := range s.vals {
		if d.has(x) {
			kept = append(kept, x)
		}
	}
	shrunk := len(kept) < len(s.vals)
	s.vals = kept
	return shrunk
}

// propagator holds the propagation state: t, domains, the stamps, changed
// and unsat are one run's, the rest is storage kept from run to run.
type propagator struct {
	t       *tape
	domains []domain
	fwd     []vset
	dem     []vset
	at      []slotStamps
	varAt   []uint32 // per variable: when varIter last changed
	clock   uint32   // ticks once per change; 0 before a run's first
	varIter [][]uint64
	arena   vsetArena
	tmp     [vsetCap]uint64 // backs the one temporary set alive at a time
	changed bool
	unsat   bool
}

// slotStamps are one slot's clock readings in the current run: when its
// forward and demand sets last changed, and when its forward and demand
// steps last ran (0: not yet).
type slotStamps struct {
	fwd, dem       uint32
	fwdRan, demRan uint32
}

func (p *propagator) tick() uint32 {
	p.clock++
	return p.clock
}

// settled reports whether none of slot s's inputs changed since ran, the
// clock reading when its forward or its demand step last ran: its own
// demand, its operands' forward sets, a variable slot's enumeration.
// Both steps read the same inputs (demand reads the operands through
// iterable, which is the forward set or — a variable's, when top — the
// enumeration, whose change forward stamps on the variable's slot).
func (p *propagator) settled(s int32, ran uint32) bool {
	at := p.at
	if ran == 0 || at[s].dem > ran {
		return false
	}
	switch op := &p.t.ops[s]; op.kind {
	case expr.KConst:
		return true
	case expr.KVar:
		return p.varAt[op.vi] <= ran
	default:
		return at[op.a0].fwd <= ran && (op.a1 < 0 || at[op.a1].fwd <= ran) && (op.a2 < 0 || at[op.a2].fwd <= ran)
	}
}

// narrow intersects dem[s] with d, stamping and flagging a change.
func (p *propagator) narrow(s int32, d *vset) {
	if p.dem[s].intersect(d, &p.arena) {
		p.changed = true
		p.at[s].dem = p.tick()
	}
	if p.dem[s].empty() {
		p.unsat = true
	}
}

// byteRange[:n] enumerates a narrow slot's full range, every value below n.
var byteRange [vsetRangeCap]uint64

func init() {
	for i := range byteRange {
		byteRange[i] = uint64(i)
	}
}

// concreteSlot evaluates one slot from concrete operand values,
// mirroring tapeState.recompute with every operand known (which in
// turn mirrors expr.Eval).
func (p *propagator) concreteSlot(s int32, a, b, c uint64) uint64 {
	op := &p.t.ops[s]
	var val uint64
	switch op.kind {
	case expr.KBin:
		r, ok := ir.EvalBin(op.op, int(op.bits), a, b)
		if !ok {
			r = 0
		}
		val = r
	case expr.KCmp:
		if ir.EvalCmp(op.op, int(p.t.ops[op.a0].bits), a, b) {
			val = 1
		}
	case expr.KSelect:
		if a != 0 {
			val = b
		} else {
			val = c
		}
	case expr.KCast:
		val = ir.EvalCast(op.op, int(p.t.ops[op.a0].bits), int(op.bits), a)
	case expr.KRead:
		if a < uint64(len(op.table)) {
			val = op.table[a]
		}
	}
	return ir.Mask(int(op.bits), val)
}

// iterable returns a finite enumeration of slot s's feasible values,
// or nil when only top is known: the forward set when finite, the
// variable's current domain for variable slots, and the full range for
// narrow slots. The enumeration is a view of storage nothing writes
// while a demand is worked out — a forward set, a variable's enumeration
// for this round, or the immutable byteRange — so callers hold several
// at once without copying.
func (p *propagator) iterable(s int32) []uint64 {
	if f := &p.fwd[s]; !f.top {
		return f.vals
	}
	op := &p.t.ops[s]
	if op.kind == expr.KVar {
		return p.varIter[op.vi]
	}
	// Narrow slots enumerate their full range (bits < 64 guards the
	// shift: 1<<64 wraps to 0 and would enumerate nothing).
	if op.bits > 0 && op.bits < 64 {
		if n := uint64(1) << uint(op.bits); n <= vsetRangeCap {
			return byteRange[:n]
		}
	}
	return nil
}

// forward recomputes fwd[s] from its operands' sets, then narrows it
// by the accumulated demand.
func (p *propagator) forward(s int32) {
	op := &p.t.ops[s]
	f := &p.fwd[s]
	wasTop, wasLen := f.top, len(f.vals)
	f.top = false
	f.vals = f.vals[:0]
	switch op.kind {
	case expr.KConst:
		f.add(ir.Mask(int(op.bits), op.val), &p.arena)
	case expr.KVar:
		iv := p.varIter[op.vi]
		if len(iv) > vsetCap {
			f.top = true
		} else {
			for _, v := range iv {
				f.add(v, &p.arena)
			}
		}
	default:
		ia := p.opIter(op.a0)
		ib := one
		if op.a1 >= 0 {
			ib = p.opIter(op.a1)
		}
		ic := one
		if op.a2 >= 0 {
			ic = p.opIter(op.a2)
		}
		if ia == nil || ib == nil || ic == nil || len(ia)*len(ib)*len(ic) > vsetPairCap {
			f.top = true
		} else {
			for _, va := range ia {
				for _, vb := range ib {
					for _, vc := range ic {
						f.add(p.concreteSlot(s, va, vb, vc), &p.arena)
						if f.top {
							break
						}
					}
				}
			}
		}
	}
	f.intersect(&p.dem[s], &p.arena)
	// A variable's slot is stamped whenever it runs: what it reads is the
	// variable's enumeration, which can shrink under a set that stays top.
	if f.top != wasTop || len(f.vals) != wasLen || op.kind == expr.KVar {
		p.at[s].fwd = p.tick()
	}
	p.at[s].fwdRan = p.clock
	if f.empty() {
		p.unsat = true
	}
}

var one = []uint64{0}

// opIter is iterable without the full-range fallback: forward widens a
// slot to top rather than enumerate an operand's whole range.
func (p *propagator) opIter(s int32) []uint64 {
	if f := &p.fwd[s]; !f.top {
		return f.vals
	}
	if op := &p.t.ops[s]; op.kind == expr.KVar {
		return p.varIter[op.vi]
	}
	return nil
}

// demand narrows dem[target] (operand position which of slot s) to the
// values for which some combination of the other operands' feasible
// values makes s evaluate into dem[s]. Unenumerable or oversized
// products contribute nothing (top).
func (p *propagator) demand(s int32, which int) {
	op := &p.t.ops[s]
	ops3 := [3]int32{op.a0, op.a1, op.a2}
	target := ops3[which]
	if target < 0 {
		return
	}
	tvals := p.iterable(target)
	if tvals == nil {
		return
	}
	others := [3][]uint64{one, one, one}
	product := len(tvals)
	for i, o := range ops3 {
		if i == which || o < 0 {
			continue
		}
		ov := p.iterable(o)
		if ov == nil {
			return
		}
		others[i] = ov
		product *= len(ov)
	}
	if product > vsetPairCap {
		return
	}
	// The target's position enumerates the one value under test.
	var held [1]uint64
	others[which] = held[:]
	// Variable targets are pruned in their domain bitset directly: a
	// domain holds up to 256 values, so routing the kept set through a
	// vset would widen exclusion demands like "anything but 0" to top
	// and lose them.
	top := &p.t.ops[target]
	if top.kind == expr.KVar {
		var keep domain
		for _, tv := range tvals {
			if held[0] = tv; p.supported(s, &others) {
				keep[tv/64] |= 1 << (tv % 64)
			}
		}
		dom := &p.domains[top.vi]
		for w := range dom {
			if masked := dom[w] & keep[w]; masked != dom[w] {
				dom[w] = masked
				p.changed = true
			}
		}
		if dom.count() == 0 {
			p.unsat = true
		}
		return
	}
	dm := vset{vals: p.tmp[:0]}
	for _, tv := range tvals {
		if held[0] = tv; p.supported(s, &others) {
			dm.add(tv, &p.arena)
		}
	}
	p.narrow(target, &dm)
}

// supported reports whether some combination of the operands' values —
// the feasible ones of the others, the one held for the target — makes
// slot s evaluate into dem[s].
func (p *propagator) supported(s int32, its *[3][]uint64) bool {
	ds := &p.dem[s]
	for _, v0 := range its[0] {
		for _, v1 := range its[1] {
			for _, v2 := range its[2] {
				if ds.has(p.concreteSlot(s, v0, v1, v2)) {
					return true
				}
			}
		}
	}
	return false
}

// constraintPass runs one forward + backward sweep over constraint
// ci's sub-DAG.
func (p *propagator) constraintPass(ci int) {
	t := p.t
	sub := t.csub[ci]
	root := t.roots[ci]

	for s := int32(0); s <= root; s++ {
		if sub[s>>6]&(1<<uint(s&63)) == 0 || p.settled(s, p.at[s].fwdRan) {
			continue
		}
		p.forward(s)
		if p.unsat {
			return
		}
	}
	if p.demandRoot(root); p.unsat {
		return
	}

	// Backward, parents-first (operands always sit at smaller slot
	// indices, so a slot's demand is final before it demands of its own
	// operands within this sweep; demands from other constraints keep
	// accumulating across sweeps).
	for s := root; s >= 0; s-- {
		if sub[s>>6]&(1<<uint(s&63)) == 0 {
			continue
		}
		if p.dem[s].top {
			continue
		}
		op := &t.ops[s]
		if op.kind == expr.KVar || op.kind == expr.KConst || p.settled(s, p.at[s].demRan) {
			continue
		}
		if op.kind == expr.KSelect {
			p.demandSelectBranch(s)
			if p.unsat {
				return
			}
		}
		for which := 0; which < 3; which++ {
			p.demand(s, which)
			if p.unsat {
				return
			}
		}
		// Stamped after the steps: what they change — their operands'
		// demands, variable domains — is none of their own inputs.
		p.at[s].demRan = p.clock
	}
}

// demandRoot demands that a constraint's root evaluate non-zero:
// intersect its demand with its feasible non-zero values (or {1} for
// 1-bit roots).
func (p *propagator) demandRoot(root int32) {
	want := vset{vals: p.tmp[:0]}
	if rf := &p.fwd[root]; !rf.top {
		for _, v := range rf.vals {
			if v != 0 {
				want.add(v, &p.arena)
			}
		}
	} else if p.t.ops[root].bits == 1 {
		want.add(1, &p.arena)
	} else {
		want.top = true
	}
	p.narrow(root, &want)
}

// demandSelectBranch handles the select case the generic enumeration
// cannot: when the condition's feasible values are all zero (or all
// non-zero), the select's value IS the corresponding branch's value, so
// the select's demand transfers to that branch wholesale — no cross
// product with the dead branch's (possibly unbounded) values needed.
func (p *propagator) demandSelectBranch(s int32) {
	op := &p.t.ops[s]
	cf := &p.fwd[op.a0]
	if cf.top || len(cf.vals) == 0 {
		return
	}
	zero, nonzero := false, false
	for _, v := range cf.vals {
		if v == 0 {
			zero = true
		} else {
			nonzero = true
		}
	}
	var branch int32
	switch {
	case zero && !nonzero:
		branch = op.a2
	case nonzero && !zero:
		branch = op.a1
	default:
		return
	}
	if p.t.ops[branch].kind == expr.KConst {
		return
	}
	p.narrow(branch, &p.dem[s])
}

// pruneDomains applies accumulated variable demands to the domains.
func (p *propagator) pruneDomains() {
	for s, op := range p.t.ops {
		if op.kind != expr.KVar {
			continue
		}
		d := &p.dem[s]
		if d.top {
			continue
		}
		dom := &p.domains[op.vi]
		for _, v := range p.varIter[op.vi] {
			if !d.has(v) {
				dom.clear(v)
				p.changed = true
			}
		}
		if dom.count() == 0 {
			p.unsat = true
			return
		}
	}
}

// propagateDomains runs value-set propagation over the group's tape
// with fresh storage (tests; the solver reuses its own via Solver.prop).
func propagateDomains(t *tape, domains []domain) bool {
	return new(propagator).run(t, domains)
}

// run prunes the search domains in place over the group's tape. It
// returns false when the group is proven unsatisfiable outright.
func (p *propagator) run(t *tape, domains []domain) bool {
	p.reset(t, domains)
	defer p.arena.settle()
	for round := 0; round < propMaxRounds; round++ {
		p.enumerate()
		p.changed = false
		for ci := range t.roots {
			if p.constraintPass(ci); p.unsat {
				return false
			}
		}
		if p.pruneDomains(); p.unsat {
			return false
		}
		if !p.changed {
			break
		}
	}
	return true
}

// reset starts a run over t: every forward set empty, every demand top,
// every stamp 0, over storage kept from earlier runs.
func (p *propagator) reset(t *tape, domains []domain) {
	p.t, p.domains, p.unsat = t, domains, false
	nslots := len(t.ops)
	if cap(p.fwd) < nslots {
		n := max(nslots, 2*cap(p.fwd))
		p.fwd, p.dem, p.at = make([]vset, n), make([]vset, n), make([]slotStamps, n)
	}
	p.fwd, p.dem, p.at = p.fwd[:nslots], p.dem[:nslots], p.at[:nslots]
	for i := range p.dem {
		p.fwd[i], p.dem[i] = vset{}, vset{top: true}
	}
	for len(p.varIter) < len(t.vars) {
		p.varIter = append(p.varIter, make([]uint64, 0, maxValues))
		p.varAt = append(p.varAt, 0)
	}
	clear(p.at)
	clear(p.varAt)
	p.clock = 0
}

// enumerate starts a round: each variable's enumeration is its domain as
// the last round left it, stamped where it shrank.
func (p *propagator) enumerate() {
	for vi := range p.t.vars {
		n := len(p.varIter[vi])
		if p.varIter[vi] = p.domains[vi].appendValues(p.varIter[vi][:0]); len(p.varIter[vi]) != n {
			p.varAt[vi] = p.tick()
		}
	}
}
