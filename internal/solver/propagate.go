package solver

import (
	"encoding/binary"
	"math/bits"

	"overify/internal/expr"
	"overify/internal/ir"
)

// Bounded value-set propagation over a compiled tape, run before a
// search backtracks, from full domains or resumed from the fixpoint a
// prefix of the group's constraints converged on (resume, at the end of
// this file). The per-variable enumeration the
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
//
// A whole constraint is skipped the same way: a run starts with every
// constraint it has not passed over marked dirty, and a round passes
// over the constraints marked since their last pass began, and no
// others. After a constraint's first pass, every change that reaches it
// starts where a demand set narrows or a variable's enumeration shrinks,
// and a forward set changes only above such a slot. A constraint that
// holds a slot holds its whole sub-DAG, so marking at those two places
// every constraint that holds the slot (touch, through the per-slot
// constraint lists bind builds) marks every constraint whose pass could
// change anything. A pass clears its mark before it runs, so what it
// changes in its own sub-DAG brings it back next round. In a resumed
// run, where almost nothing is unsettled, the rounds visit the
// constraints the new ones reach and no others.
// TestPropagateStampsMatchFullSweep holds the gated run to the ungated
// sweep.
//
// The storage is the solver's (Solver.prop, beside its tapeScratch): set
// headers and variable enumerations are reused from search to search,
// and a set's values live in a vsetCap-word array carved from one arena
// the first time the set holds anything (most slots widen to top or are
// never demanded of, and never take one). A run resets the arena, not
// frees it: a second run over a tape no larger allocates nothing.
//
// Comparisons — three quarters and more of the slots the steps evaluate
// on the heavy cells — are not enumerated (cmpkernel.go). forward of a
// comparison reads its operands' summaries (unsigned and signed extremes,
// membership below 256): its set is the result of the first pair of the
// product, then the other result if some pair gives it, which is the set
// the product builds in the order it builds it. demand of either operand
// keeps each of the target's values some value of the other side
// supports, found from the other side's summary: a variable's kept values
// are one mask ANDed into its domain (a point or its complement for eq
// and ne, one key interval for an order); any other target's are its
// enumeration filtered in order, the product's insertion order. The
// kernels run exactly where the product would — the same enumerability
// and vsetPairCap gates, so where the product widens to top so does the
// kernel — and return what it returns, so the sets, the domains, every
// snapshot byte and every later step are the product steps'
// (TestComparisonKernelsMatchProduct against the product steps, called
// directly; TestSnapshotsPinned on two heavy cells). A variable's summary
// is taken where its enumeration is listed (list, from enumerate and
// restore); another slot's is kept against its forward stamp and the
// run's epoch, and taken again when either moved. evals counts the
// product steps' evaluations only: the kernels make none.
//
// A run over several variables that converges without a verdict gets one
// exact step more, refutation by cases (refuteByCases, at the end of this
// file): one slot holding a few values is split, and the run resumes from
// its own fixpoint once per value. A group every case refutes is unsat
// and is not searched.

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
	// varSum[vi] summarises varIter[vi] for the comparison kernels, and
	// sums[s] slot s's forward set as of its stamp (summary); epoch
	// counts runs, so a summary from an earlier one reads as stale.
	varSum []cmpSummary
	sums   []cmpSummary
	epoch  uint32
	arena  vsetArena
	tmp    [vsetCap]uint64 // backs the one temporary set alive at a time
	// cons[consOff[s]:consOff[s+1]] are the constraints whose sub-DAG
	// holds slot s (CSR, bind); dirty marks the constraints a round
	// passes over (touch).
	consOff []int32
	cons    []int32
	dirty   []bool
	// caseSnap and caseDoms are refutation by cases' storage: the
	// fixpoint each case starts from and the domains a case narrows.
	caseSnap []byte
	caseDoms []domain
	changed  bool
	unsat    bool
	// converged is set when the run ended on a round that changed
	// nothing: its sets and domains are then a fixpoint (snapshot).
	converged bool
	// evals counts the run's concreteSlot calls (test instrumentation:
	// a resumed run evaluates only what the added constraints change).
	evals int64
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

// touch marks every constraint whose sub-DAG holds slot s dirty.
func (p *propagator) touch(s int32) {
	for _, ci := range p.cons[p.consOff[s]:p.consOff[s+1]] {
		p.dirty[ci] = true
	}
}

// narrow intersects dem[s] with d, stamping and flagging a change.
func (p *propagator) narrow(s int32, d *vset) {
	if p.dem[s].intersect(d, &p.arena) {
		p.changed = true
		p.at[s].dem = p.tick()
		p.touch(s)
	}
	if p.dem[s].empty() {
		p.unsat = true
	}
}

// byteRange[:n] enumerates a narrow slot's full range, every value below n.
var byteRange = func() (r [vsetRangeCap]uint64) {
	for i := range r {
		r[i] = uint64(i)
	}
	return r
}()

// concreteSlot evaluates one slot from concrete operand values,
// mirroring tapeState.recompute with every operand known (which in
// turn mirrors expr.Eval).
func (p *propagator) concreteSlot(s int32, a, b, c uint64) uint64 {
	p.evals++
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
			break
		}
		if p.cmpKernel(op) {
			p.forwardCmp(f, s, ia, ib)
		} else {
			p.forwardProduct(f, s, ia, ib, ic)
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

// forwardProduct adds to f the value of slot s at every combination of
// its operands' values, row by row: the generic forward step.
func (p *propagator) forwardProduct(f *vset, s int32, ia, ib, ic []uint64) {
	// Once the set is top, add changes nothing and concreteSlot has no
	// effect, so the rest of the product is not evaluated.
	for _, va := range ia {
		for _, vb := range ib {
			for _, vc := range ic {
				if f.add(p.concreteSlot(s, va, vb, vc), &p.arena); f.top {
					return
				}
			}
		}
	}
}

// cmpKernel reports whether the comparison kernels answer for slot s: a
// comparison whose operands are as wide as each other (expr.Builder
// refuses a mismatch; a hand-built tape may not).
func (p *propagator) cmpKernel(op *tapeOp) bool {
	return op.kind == expr.KCmp && p.t.ops[op.a0].bits == p.t.ops[op.a1].bits
}

// forwardCmp is forwardProduct for a comparison, answered from the
// operands' summaries: the result of the first pair, then the other
// result if some pair gives it — the set the product builds, in the
// order it builds it.
func (p *propagator) forwardCmp(f *vset, s int32, ia, ib []uint64) {
	if len(ia) == 0 || len(ib) == 0 {
		return
	}
	op := &p.t.ops[s]
	r, signed := relOf(op.op)
	first := b2u(ir.EvalCmp(op.op, int(p.t.ops[op.a0].bits), ia[0], ib[0]))
	f.add(first, &p.arena)
	if first == 1 {
		r = r.not()
	}
	if pairExists(r, signed, p.summary(op.a0), ia, p.summary(op.a1), ib) {
		f.add(1-first, &p.arena)
	}
}

// summary is the comparison kernels' summary of slot s's list, the one
// opIter and iterable return: its forward set, taken again only when the
// set's stamp moved; a variable's enumeration, taken where it is listed
// (list); or the full range of a narrow slot.
func (p *propagator) summary(s int32) *cmpSummary {
	if f := &p.fwd[s]; !f.top {
		c := &p.sums[s]
		if c.epoch != p.epoch || c.at != p.at[s].fwd {
			c.fill(f.vals, signBit(p.t.ops[s].bits))
			c.epoch, c.at = p.epoch, p.at[s].fwd
		}
		return c
	}
	op := &p.t.ops[s]
	if op.kind == expr.KVar {
		return &p.varSum[op.vi]
	}
	return &rangeSums[op.bits]
}

// list sets variable vi's enumeration to the values of d, with its
// summary.
func (p *propagator) list(vi int, d *domain) {
	p.varIter[vi] = d.appendValues(p.varIter[vi][:0])
	p.varSum[vi].fillDomain(d, int32(p.t.vars[vi].Bits))
}

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
	if p.cmpKernel(op) {
		p.demandCmp(s, which, tvals, others[1-which])
	} else {
		p.demandProduct(s, which, tvals, others)
	}
}

// demandProduct narrows the target at operand position which of slot s
// to the values of tvals, its enumeration, that some combination of the
// other operands' values supports: the generic demand step.
func (p *propagator) demandProduct(s int32, which int, tvals []uint64, others [3][]uint64) {
	// The target's position enumerates the one value under test.
	var held [1]uint64
	others[which] = held[:]
	target := p.operandAt(s, which)
	// Variable targets are pruned in their domain bitset directly: a
	// domain holds up to 256 values, so routing the kept set through a
	// vset would widen exclusion demands like "anything but 0" to top
	// and lose them.
	if p.t.ops[target].kind == expr.KVar {
		var keep domain
		for _, tv := range tvals {
			if held[0] = tv; p.supported(s, &others) {
				keep[tv/64] |= 1 << (tv % 64)
			}
		}
		p.keepDomain(target, &keep)
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

// demandCmp is demandProduct for a comparison, answered from the other
// operand's summary (its list is ovals): a value of the target is kept
// when some value of the other side gives a result the comparison's
// demand admits. A variable target's kept values are a mask over its
// domain, one interval or point per result (cmpSummary.mask); any other
// target's are tvals filtered in order, the set demandProduct builds.
func (p *propagator) demandCmp(s int32, which int, tvals, ovals []uint64) {
	op := &p.t.ops[s]
	target, other := p.operandAt(s, which), p.operandAt(s, 1-which)
	r, signed := relOf(op.op)
	if which == 1 {
		r = r.swap()
	}
	var flip uint64
	if signed {
		flip = signBit(p.t.ops[target].bits)
	}
	ds, os := &p.dem[s], p.summary(other)
	want1, want0 := ds.has(1), ds.has(0)
	if top := &p.t.ops[target]; top.kind == expr.KVar {
		var keep domain
		if want1 {
			keep = os.mask(r, signed, flip, top.bits)
		}
		if want0 {
			m := os.mask(r.not(), signed, flip, top.bits)
			for w := range keep {
				keep[w] |= m[w]
			}
		}
		in := &p.summary(target).low
		for w := range keep {
			keep[w] &= in[w]
		}
		p.keepDomain(target, &keep)
		return
	}
	dm := vset{vals: p.tmp[:0]}
	for _, tv := range tvals {
		if want1 && os.exists(r, signed, tv, tv^flip, ovals) || want0 && os.exists(r.not(), signed, tv, tv^flip, ovals) {
			dm.add(tv, &p.arena)
		}
	}
	p.narrow(target, &dm)
}

// operandAt is slot s's operand at position which.
func (p *propagator) operandAt(s int32, which int) int32 {
	op := &p.t.ops[s]
	return [3]int32{op.a0, op.a1, op.a2}[which]
}

// keepDomain narrows the variable slot target's domain to keep.
func (p *propagator) keepDomain(target int32, keep *domain) {
	dom := &p.domains[p.t.ops[target].vi]
	for w := range dom {
		if masked := dom[w] & keep[w]; masked != dom[w] {
			dom[w] = masked
			p.changed = true
		}
	}
	if dom.count() == 0 {
		p.unsat = true
	}
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
// ci's sub-DAG, visiting the slots its bitset holds.
func (p *propagator) constraintPass(ci int) {
	t := p.t
	sub := t.csub[ci]

	for w, word := range sub {
		for ; word != 0; word &= word - 1 {
			s := int32(w*64 + bits.TrailingZeros64(word))
			if p.settled(s, p.at[s].fwdRan) {
				continue
			}
			if p.forward(s); p.unsat {
				return
			}
		}
	}
	if p.demandRoot(t.roots[ci]); p.unsat {
		return
	}

	// Backward, parents-first (operands always sit at smaller slot
	// indices, so a slot's demand is final before it demands of its own
	// operands within this sweep; demands from other constraints keep
	// accumulating across sweeps).
	for w := len(sub) - 1; w >= 0; w-- {
		for word := sub[w]; word != 0; {
			b := 63 - bits.LeadingZeros64(word)
			word &^= 1 << uint(b)
			s := int32(w*64 + b)
			if p.dem[s].top {
				continue
			}
			op := &t.ops[s]
			if op.kind == expr.KVar || op.kind == expr.KConst || p.settled(s, p.at[s].demRan) {
				continue
			}
			if op.kind == expr.KSelect {
				if p.demandSelectBranch(s); p.unsat {
					return
				}
			}
			for which := 0; which < 3; which++ {
				if p.demand(s, which); p.unsat {
					return
				}
			}
			// Stamped after the steps: what they change — their operands'
			// demands, variable domains — is none of their own inputs.
			p.at[s].demRan = p.clock
		}
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
	p.evals = 0
	p.reset(t, domains)
	return p.rounds()
}

// rounds sweeps every dirty constraint until a round changes nothing or
// propMaxRounds have run.
func (p *propagator) rounds() bool {
	defer p.arena.settle()
	for round := 0; round < propMaxRounds; round++ {
		p.enumerate()
		p.changed = false
		for ci := range p.t.roots {
			if !p.dirty[ci] {
				continue
			}
			p.dirty[ci] = false
			if p.constraintPass(ci); p.unsat {
				return false
			}
		}
		if p.pruneDomains(); p.unsat {
			return false
		}
		if !p.changed {
			p.converged = true
			break
		}
	}
	return true
}

// reset starts a run over t: every forward set empty, every demand top,
// every stamp 0, every constraint dirty, over storage kept from earlier
// runs.
func (p *propagator) reset(t *tape, domains []domain) {
	p.bind(t)
	p.start(domains)
}

// bind sizes the storage for a run over t and lists, per slot, the
// constraints whose sub-DAG holds it: count each slot's constraints, sum
// the counts into each list's end, then place every constraint.
func (p *propagator) bind(t *tape) {
	p.t = t
	nslots := len(t.ops)
	if cap(p.fwd) < nslots {
		n := max(nslots, 2*cap(p.fwd))
		p.fwd, p.dem, p.at, p.sums = make([]vset, n), make([]vset, n), make([]slotStamps, n), make([]cmpSummary, n)
	}
	p.fwd, p.dem, p.at, p.sums = p.fwd[:nslots], p.dem[:nslots], p.at[:nslots], p.sums[:nslots]
	for len(p.varIter) < len(t.vars) {
		p.varIter = append(p.varIter, make([]uint64, 0, maxValues))
		p.varAt = append(p.varAt, 0)
		p.varSum = append(p.varSum, cmpSummary{})
	}
	p.dirty = zeroed(p.dirty, len(t.roots))
	p.consOff = zeroed(p.consOff, nslots+1)
	off := p.consOff
	for _, sub := range t.csub {
		for w, word := range sub {
			for ; word != 0; word &= word - 1 {
				off[w*64+bits.TrailingZeros64(word)]++
			}
		}
	}
	for s := 1; s <= nslots; s++ {
		off[s] += off[s-1]
	}
	p.cons = zeroed(p.cons, int(off[nslots]))
	for ci, sub := range t.csub {
		for w, word := range sub {
			for ; word != 0; word &= word - 1 {
				s := w*64 + bits.TrailingZeros64(word)
				off[s]--
				p.cons[off[s]] = int32(ci)
			}
		}
	}
}

// start begins a run over the bound tape from the given domains: every
// forward set empty, every demand top, every stamp 0, every constraint
// dirty.
func (p *propagator) start(domains []domain) {
	p.domains, p.unsat, p.converged = domains, false, false
	for i := range p.dem {
		p.fwd[i], p.dem[i] = vset{}, vset{top: true}
	}
	for vi := range p.t.vars {
		p.varIter[vi] = p.varIter[vi][:0]
		p.varSum[vi].fill(nil, 0)
	}
	if p.epoch++; p.epoch == 0 {
		// Wrapped: no summary taken before may read as current.
		clear(p.sums[:cap(p.sums)])
		p.epoch = 1
	}
	clear(p.at)
	clear(p.varAt)
	for ci := range p.dirty {
		p.dirty[ci] = true
	}
	p.clock = 0
}

// enumerate starts a round: each variable's enumeration is its domain as
// the last round left it, stamped where it shrank, with the constraints
// that read one of the variable's slots touched. A domain only shrinks
// from the enumeration it was last listed as, so one of the same size is
// that enumeration and is not listed again.
func (p *propagator) enumerate() {
	for vi := range p.t.vars {
		if p.domains[vi].count() != len(p.varIter[vi]) {
			p.list(vi, &p.domains[vi])
			p.varAt[vi] = p.tick()
			for _, s := range p.t.watch[vi] {
				if op := &p.t.ops[s]; op.kind == expr.KVar && op.vi == int32(vi) {
					p.touch(s)
				}
			}
		}
	}
}

// A satisfiable group's run is kept for the groups that extend it. The
// search of G ∧ c would otherwise propagate G all over again: its tape
// is G's tape with c's new slots after them (compile emits slots in
// constraint order, so the tape of a prefix cs[:k] is the first slots of
// the tape of cs), and every step over those slots is a step of G's run.
// Every step only narrows, monotonically in its inputs, so an iteration
// that settles ends on the greatest common fixpoint of its steps from
// any start above that fixpoint; G's fixpoint lies above the extension's.
// A run resumed from G's sets and domains therefore ends on the sets,
// domains and verdict of a run from scratch, and the search that follows
// tries the same assignments. Only a run that converged is kept: one cut
// off by propMaxRounds is not a fixpoint.
//
// The snapshot is one byte slice, all little-endian: an 8-byte hash of
// the constraint order (the cache key is a set hash, the tape prefix
// needs the order), the slot count and the constraint count in 4 bytes
// each (a resumed run's first round passes over the constraints after
// the prefix and those they touch), each variable's domain in
// 32 bytes in the group's ordinal order, one length byte per slot for
// its forward set and one for its demand set (snapTop for top), then the
// sets' values, (bits+7)/8 bytes each.
const (
	snapHeader = 16
	snapTop    = 255 // > vsetCap
)

// orderKey is an order-sensitive hash of a constraint list.
func orderKey(cs []*expr.Expr) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, c := range cs {
		h = mix64(h ^ uint64(c.ID()))
	}
	return h
}

// snapOrder is the orderKey a snapshot was taken under.
func snapOrder(snap []byte) uint64 { return binary.LittleEndian.Uint64(snap) }

// valueBytes is how many bytes a value of a bits-wide slot takes.
func valueBytes(bits int32) int { return (int(bits) + 7) / 8 }

// snapshot encodes the fixpoint the run converged on, for a run over an
// extension of the group to resume from. vs is the group's variable set
// in ordinal order and order its constraints' orderKey. At a fixpoint
// each variable's enumeration is its domain (the last round pruned
// nothing), so the domains are read from the enumerations, not from the
// domains the search has consumed since.
func (p *propagator) snapshot(vs []*expr.Var, order uint64) []byte {
	t := p.t
	n := snapHeader + len(vs)*len(domain{})*8 + 2*len(t.ops)
	for s := range t.ops {
		n += valueBytes(t.ops[s].bits) * (len(p.fwd[s].vals) + len(p.dem[s].vals))
	}
	return p.appendSnapshot(make([]byte, 0, n), vs, order)
}

// appendSnapshot appends the snapshot of the fixpoint to b.
func (p *propagator) appendSnapshot(b []byte, vs []*expr.Var, order uint64) []byte {
	t := p.t
	b = binary.LittleEndian.AppendUint64(b, order)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.ops)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.roots)))
	for _, v := range vs {
		var d domain
		for _, x := range p.varIter[t.varIndex(v)] {
			d[x/64] |= 1 << (x % 64)
		}
		for _, w := range d {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	for s := range t.ops {
		b = append(b, snapLen(&p.fwd[s]), snapLen(&p.dem[s]))
	}
	for s := range t.ops {
		w := valueBytes(t.ops[s].bits)
		for _, set := range [2]*vset{&p.fwd[s], &p.dem[s]} {
			for _, x := range set.vals {
				for i := 0; i < w; i++ {
					b = append(b, byte(x>>(8*i)))
				}
			}
		}
	}
	return b
}

// snapLen is a set's length byte in a snapshot.
func snapLen(s *vset) byte {
	if s.top {
		return snapTop
	}
	return byte(len(s.vals))
}

// resume is run over a tape whose first constraints form a group whose
// converged run left snap: the prefix's slots, its variables' domains and
// their enumerations start where that run ended, each stamped at clock 1,
// so settled holds for every step of theirs until something the later
// constraints narrow reaches it, and the prefix's constraints start
// clean. The prefix's variables are those whose slot is among its slots;
// the others start from the domains given.
func (p *propagator) resume(t *tape, domains []domain, vs []*expr.Var, snap []byte) bool {
	p.evals = 0
	p.bind(t)
	p.restore(domains, vs, snap)
	return p.rounds()
}

// restore starts a run over the bound tape from snap (resume).
func (p *propagator) restore(domains []domain, vs []*expr.Var, snap []byte) {
	t := p.t
	p.start(domains)
	nslots := int(binary.LittleEndian.Uint32(snap[8:]))
	clear(p.dirty[:binary.LittleEndian.Uint32(snap[12:])])
	b := snap[snapHeader:]
	for _, v := range vs {
		vi := t.varIndex(v)
		if w := t.watch[vi]; len(w) == 0 || w[0] >= int32(nslots) {
			continue
		}
		for i := range domains[vi] {
			domains[vi][i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		b = b[8*len(domain{}):]
	}
	for vi := range t.vars {
		p.list(vi, &domains[vi])
		p.varAt[vi] = 1
	}
	lens, b := b[:2*nslots], b[2*nslots:]
	for s := 0; s < nslots; s++ {
		w := valueBytes(t.ops[s].bits)
		b = p.restoreSet(&p.fwd[s], lens[2*s], b, w)
		b = p.restoreSet(&p.dem[s], lens[2*s+1], b, w)
		p.at[s] = slotStamps{fwd: 1, dem: 1, fwdRan: 1, demRan: 1}
	}
	p.clock = 1
}

// restoreSet decodes a set of n values, w bytes each, from the front of
// b into s, returning the rest of b.
func (p *propagator) restoreSet(s *vset, n byte, b []byte, w int) []byte {
	if n == snapTop {
		*s = vset{top: true}
		return b
	}
	s.top, s.vals = false, s.vals[:0]
	if n > 0 && s.vals == nil {
		s.vals = p.arena.carve()
	}
	for range n {
		var x uint64
		for i := 0; i < w; i++ {
			x |= uint64(b[i]) << (8 * i)
		}
		s.vals, b = append(s.vals, x), b[w:]
	}
	return b
}

// Refutation by cases. A run over several variables can converge without
// a verdict where the group is unsat: basename's "last slash" groups
// hold an index s ∈ {-1, 0, 1} and demand that three bytes after it be
// non-zero while one of them is 0. No single set refutes that — "this
// byte ≠ 0" is 255 values, far past vsetCap — but under each one value
// of s every set collapses and the group is refuted. So once a run
// converges, one slot (splitSlot) whose feasible set fwd ∩ dem holds 2
// to caseMax values is split: the run is resumed from its own fixpoint
// once per value, with that slot's demand narrowed to the value. Every
// solution puts each slot inside fwd ∩ dem, so it lies in some case: when
// every case ends unsat the group is, and it is not searched. Otherwise
// the propagator is restored to the fixpoint and the search runs as it
// would have. A case cut off by propMaxRounds is not refuted.
//
// One slot is split, the highest: slots are emitted in constraint order,
// so it is one of the latest constraints', the ones that made this group
// new. Over a solver_hard pass the highest slot refutes 6 groups in 50
// case runs; the lowest refutes 4, the slot with the most readers the
// same 6 in 92 runs, and every candidate in turn the same 6 in 662.
// The cases run on this propagator, from one reusable snapshot of the
// fixpoint over scratch domains, so the storage is the run's own and a
// warm split allocates nothing.

// caseMax is the most values a slot is split into.
const caseMax = 4

// splitSlot returns the highest slot, neither a constant nor a
// variable, whose feasible set fwd ∩ dem holds 2 to caseMax values,
// with those values; n is 0 when there is none.
func (p *propagator) splitSlot() (s int32, vals [caseMax]uint64, n int) {
	for s = int32(len(p.t.ops)) - 1; s >= 0; s-- {
		if k := p.t.ops[s].kind; k == expr.KConst || k == expr.KVar {
			continue
		}
		from, in := &p.fwd[s], &p.dem[s]
		if from.top {
			from, in = in, from
		}
		if from.top || len(from.vals) < 2 {
			continue
		}
		n = 0
		for _, x := range from.vals {
			if !in.has(x) {
				continue
			}
			if n == caseMax {
				n++
				break
			}
			vals[n] = x
			n++
		}
		if n >= 2 && n <= caseMax {
			return s, vals, n
		}
	}
	return -1, vals, 0
}

// refuteByCases splits the converged run's splitSlot, reporting how many
// cases it ran and whether every one ended unsat. vs is the group's
// variable set in ordinal order.
// An unrefuted split leaves the propagator at the fixpoint it started
// from.
func (p *propagator) refuteByCases(vs []*expr.Var) (runs int, refuted bool) {
	s, vals, n := p.splitSlot()
	if n == 0 {
		return 0, false
	}
	domains := p.domains
	p.caseSnap = p.appendSnapshot(p.caseSnap[:0], vs, 0)
	p.caseDoms = zeroed(p.caseDoms, len(domains))
	for _, v := range vals[:n] {
		runs++
		p.restore(p.caseDoms, vs, p.caseSnap)
		p.tmp[0] = v
		p.narrow(s, &vset{vals: p.tmp[:1]})
		if p.rounds() {
			p.restore(domains, vs, p.caseSnap)
			p.converged = true
			p.arena.settle()
			return runs, false
		}
	}
	return runs, true
}
