package passes

import (
	"overify/internal/ir"
)

// Check-relevance analysis: the backward closure of the configured
// check set over the IR's data, control, and memory dependence edges.
// An instruction is *relevant* when deleting it could change whether
// some kept check (or natively trapping instruction) fires, or whether
// the program terminates. Everything outside the closure is the slice
// pass's prey.
//
// The closure is module-wide and interprocedural (via Instr.Callee
// edges), and deliberately conservative where precision would need a
// real points-to analysis:
//
//   - memory: a relevant load from a known object keeps every store to
//     that object — plus every store through an unknown pointer when
//     the object's address escapes; a relevant load through an unknown
//     pointer keeps every store to every escaping object. Loads kept
//     only because they could fault (nothing relevant consumes their
//     value) keep their address computation but pin no stores at all.
//   - termination: every loop-exit branch stays relevant, so a sliced
//     loop still runs its original trip count; a function containing a
//     block that cannot reach any exit keeps all its branches.
//   - divergence: a call is kept whenever the callee could loop or
//     recurse, even if nothing it computes is observable.
type Relevance struct {
	Checks ir.CheckSet

	relevant map[*ir.Instr]bool
	live     map[*ir.Block]bool
	roots    int
}

// Relevant reports whether in is inside the backward closure of the
// check set.
func (r *Relevance) Relevant(in *ir.Instr) bool { return r.relevant[in] }

// Roots returns the number of closure roots (kept checks plus
// possibly-trapping instructions) found in the module.
func (r *Relevance) Roots() int { return r.roots }

// workItem is one queued propagation. Value-relevant instructions
// (their result feeds the closure) propagate the full rule set; kept
// trap roots whose value nothing relevant consumes (full=false) only
// keep their operands — in particular, a load kept solely because it
// could fault needs its address, not the memory it would read.
type workItem struct {
	in   *ir.Instr
	full bool
}

// relevanceBuilder holds the per-module fixpoint state.
type relevanceBuilder struct {
	m   *ir.Module
	rel *Relevance

	work     []workItem
	valueRel map[*ir.Instr]bool

	// cd maps a block to the branch blocks it is control-dependent on
	// (Ferrante-style, via the postdominator tree).
	cd map[*ir.Block][]*ir.Block

	// Memory dependence indexes: stores grouped by known base object
	// (an *ir.Global or the defining OpAlloca), plus stores through
	// pointers no static analysis here can name.
	storesByObj  map[ir.Value][]*ir.Instr
	unknownStore []*ir.Instr

	// escapes marks object bases reachable through pointers
	// knownObjectAccess cannot resolve (address passed to a call,
	// stored, compared, phi'd, or re-derived through a second GEP).
	// Loads through unknown pointers can only observe escaping objects.
	escapes      map[ir.Value]bool
	unknownHot   bool // a value-relevant load from a known escaping object exists
	escStoresHot bool // a value-relevant unknown load exists

	// Interprocedural state.
	callSites  map[*ir.Function][]*ir.Instr // call instrs by callee
	needed     map[*ir.Function]bool        // function contains relevant code
	mayDiverge map[*ir.Function]bool
}

// ComputeRelevance builds the check-relevance closure of m for the
// given kept-check subset (zero = all checks).
func ComputeRelevance(m *ir.Module, checks ir.CheckSet) *Relevance {
	b := &relevanceBuilder{
		m: m,
		rel: &Relevance{
			Checks:   checks,
			relevant: make(map[*ir.Instr]bool),
			live:     make(map[*ir.Block]bool),
		},
		valueRel:    make(map[*ir.Instr]bool),
		cd:          make(map[*ir.Block][]*ir.Block),
		storesByObj: make(map[ir.Value][]*ir.Instr),
		escapes:     make(map[ir.Value]bool),
		callSites:   make(map[*ir.Function][]*ir.Instr),
		needed:      make(map[*ir.Function]bool),
	}
	b.index()
	b.markRoots()
	b.run()
	return b.rel
}

// index precomputes control-dependence edges, the memory and call-site
// indexes, and the per-function divergence summaries.
func (b *relevanceBuilder) index() {
	for _, f := range b.m.Funcs {
		if f.IsDeclaration() {
			continue
		}
		pdt := ir.ComputePostDom(f)
		for _, blk := range f.Blocks {
			succs := blk.Succs()
			if len(succs) < 2 {
				continue
			}
			// Each successor chain up to (exclusive) ipdom(blk) is
			// control-dependent on blk. A nil ipdom means the chain runs
			// to the virtual exit.
			stop := pdt.Ipdom(blk)
			for _, s := range succs {
				for t := s; t != nil && t != stop; t = pdt.Ipdom(t) {
					b.cd[t] = append(b.cd[t], blk)
					if !pdt.HasExit(t) {
						break // no postdom chain to climb; fallback covers it
					}
				}
			}
		}
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				switch in.Op {
				case ir.OpStore:
					if base, idx, count, ok := knownObjectAccess(in.Args[1]); ok {
						_, _ = idx, count
						b.storesByObj[base] = append(b.storesByObj[base], in)
					} else {
						b.unknownStore = append(b.unknownStore, in)
					}
				case ir.OpCall:
					if in.Callee != nil {
						b.callSites[in.Callee] = append(b.callSites[in.Callee], in)
					}
				}
			}
		}
	}
	b.mayDiverge = divergenceSummaries(b.m)
	b.indexEscapes()
}

// indexEscapes computes which object bases (allocas, globals) may be
// reached through a pointer knownObjectAccess cannot resolve. The walk
// mirrors that resolver exactly: a base or its one-level GEPs may only
// appear in address positions; any other use — call argument, stored
// value, return, phi/select, comparison, a second GEP — publishes the
// address beyond what the memory index can see.
func (b *relevanceBuilder) indexEscapes() {
	// derived[v] lists the one-level GEPs over base v.
	addressOnly := func(v ir.Value, firstLevel bool) bool {
		for _, f := range b.m.Funcs {
			for _, blk := range f.Blocks {
				for _, in := range blk.Instrs {
					for i, a := range in.Args {
						if a != v {
							continue
						}
						switch {
						case in.Op == ir.OpLoad && i == 0:
						case in.Op == ir.OpStore && i == 1:
						case in.Op == ir.OpCheck:
							// A bounds check inspects the address without
							// publishing it.
						case in.Op == ir.OpGEP && i == 0 && firstLevel:
							// The GEP itself is vetted by the caller.
						default:
							return false
						}
					}
				}
			}
		}
		return true
	}
	vet := func(base ir.Value) bool {
		if !addressOnly(base, true) {
			return false
		}
		for _, f := range b.m.Funcs {
			for _, blk := range f.Blocks {
				for _, in := range blk.Instrs {
					if in.Op == ir.OpGEP && in.Args[0] == base && !addressOnly(in, false) {
						return false
					}
				}
			}
		}
		return true
	}
	for _, g := range b.m.Globals {
		if !vet(g) {
			b.escapes[g] = true
		}
	}
	for _, f := range b.m.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Op == ir.OpAlloca && !vet(in) {
					b.escapes[in] = true
				}
			}
		}
	}
}

// divergenceSummaries reports, per defined function, whether it could
// fail to terminate: it contains a loop, sits on a call-graph cycle, or
// (transitively) calls a function that does. Declarations count as
// divergent — the engine models them as traps, which the root set
// already keeps, but a call summary must stay conservative.
func divergenceSummaries(m *ir.Module) map[*ir.Function]bool {
	div := make(map[*ir.Function]bool)
	for _, f := range m.Funcs {
		if f.IsDeclaration() {
			div[f] = true
			continue
		}
		dt := ir.ComputeDom(f)
		if len(ir.FindLoops(f, dt)) > 0 {
			div[f] = true
		}
		// An unreachable-block-free function could still hide a cycle in
		// unreachable code; those blocks are never executed, so only
		// reachable loops matter, which FindLoops already restricts to.
	}
	// Propagate over the call graph to a fixpoint; cycles (recursion)
	// converge to divergent because each member sees the other's bit
	// once one is set — seed cycles by walking with an on-stack set.
	state := make(map[*ir.Function]int) // 0 unvisited, 1 on stack, 2 done
	var visit func(f *ir.Function)
	visit = func(f *ir.Function) {
		if state[f] == 2 {
			return
		}
		if state[f] == 1 {
			div[f] = true // recursion
			return
		}
		state[f] = 1
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Op != ir.OpCall || in.Callee == nil {
					continue
				}
				visit(in.Callee)
				if div[in.Callee] {
					div[f] = true
				}
			}
		}
		state[f] = 2
	}
	for _, f := range m.Funcs {
		if !f.IsDeclaration() {
			visit(f)
		}
	}
	// One more linear sweep so callers of newly-divergent cycle members
	// settle (visit marks members done before the cycle head's bit is
	// known).
	for changed := true; changed; {
		changed = false
		for _, f := range m.Funcs {
			if f.IsDeclaration() || div[f] {
				continue
			}
			for _, blk := range f.Blocks {
				for _, in := range blk.Instrs {
					if in.Op == ir.OpCall && in.Callee != nil && div[in.Callee] {
						div[f] = true
						changed = true
					}
				}
			}
		}
	}
	return div
}

// markRoots seeds the closure: kept checks, possibly-trapping
// instructions, loop-exit branches (termination), and calls to
// possibly-divergent callees.
func (b *relevanceBuilder) markRoots() {
	for _, f := range b.m.Funcs {
		if f.IsDeclaration() {
			continue
		}
		dt := ir.ComputeDom(f)
		loops := ir.FindLoops(f, dt)
		for _, l := range loops {
			for _, ex := range l.Exits {
				if t := ex.From.Term(); t != nil {
					b.mark(t)
				}
			}
		}
		// Fallback for control flow the loop forest cannot see
		// (irreducible cycles, blocks that never reach an exit): keep
		// every branch in the function.
		pdt := ir.ComputePostDom(f)
		noExit := false
		for _, blk := range f.Blocks {
			if dt.Reachable(blk) && !pdt.HasExit(blk) {
				noExit = true
				break
			}
		}
		if noExit {
			for _, blk := range f.Blocks {
				if t := blk.Term(); t != nil && t.Op == ir.OpCondBr {
					b.mark(t)
				}
			}
		}
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if b.isRoot(in) {
					b.rel.roots++
					// Trap roots join as operand-only members: whether they
					// fault depends on their operands, not on who reads their
					// result. mark() upgrades them if a relevant consumer
					// appears.
					b.markTrap(in)
				}
				// The slice pass replaces irrelevant integer return values
				// with zero; non-integer returns have no such stand-in, so
				// their producers must stay in the closure.
				if in.Op == ir.OpRet && len(in.Args) == 1 {
					if _, isInt := in.Args[0].Type().(ir.IntType); !isInt {
						if ai, isInstr := in.Args[0].(*ir.Instr); isInstr {
							b.mark(ai)
						}
					}
				}
			}
		}
	}
}

// isRoot reports whether in can fire a kept check or trap natively —
// deleting it could silence a bug, so it anchors the closure.
func (b *relevanceBuilder) isRoot(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpCheck:
		return b.rel.Checks.Contains(in.Kind)
	case ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem:
		c, ok := in.Args[1].(*ir.Const)
		return !ok || c.IsZero()
	case ir.OpLoad:
		return !safeAccess(in.Args[0], false)
	case ir.OpStore:
		return !safeAccess(in.Args[1], true)
	case ir.OpGEP:
		// GEP traps only on a null base; a base rooted in an alloca or
		// global is never null.
		base, _, _, ok := knownObjectAccess(in)
		_ = base
		return !ok
	case ir.OpPtrDiff, ir.OpUnreachable:
		return true
	case ir.OpCall:
		// Indirect/external calls trap in the engine; calls to
		// possibly-divergent callees must survive for termination.
		return in.Callee == nil || in.Callee.IsDeclaration() || b.mayDiverge[in.Callee]
	}
	// Relational pointer comparison traps across objects.
	if in.Op.IsCmp() && in.Op != ir.OpEq && in.Op != ir.OpNe {
		if _, ok := in.Args[0].Type().(ir.PtrType); ok {
			return true
		}
		if _, ok := in.Args[1].Type().(ir.PtrType); ok {
			return true
		}
	}
	return false
}

// safeAccess reports whether a load/store through p provably cannot
// trap: a known alloca/global base, a constant in-bounds index, and
// (for stores) a writable object.
func safeAccess(p ir.Value, isStore bool) bool {
	base, idx, count, ok := knownObjectAccess(p)
	if !ok {
		return false
	}
	if g, isG := base.(*ir.Global); isG && isStore && g.ReadOnly {
		return false
	}
	c, isConst := idx.(*ir.Const)
	return isConst && c.Val < uint64(count)
}

// mark adds in to the closure as value-relevant: something kept
// consumes its result, so the full propagation rules apply.
func (b *relevanceBuilder) mark(in *ir.Instr) {
	if in == nil || b.valueRel[in] {
		return
	}
	b.valueRel[in] = true
	b.rel.relevant[in] = true
	b.work = append(b.work, workItem{in: in, full: true})
}

// markTrap keeps in because it could fault or diverge, without claiming
// anything reads its result. A later mark() upgrades it — the worklist
// admits the same instruction once per mode.
func (b *relevanceBuilder) markTrap(in *ir.Instr) {
	if in == nil || b.rel.relevant[in] {
		return
	}
	b.rel.relevant[in] = true
	b.work = append(b.work, workItem{in: in, full: false})
}

// markLive records that block blk executes relevant work, making every
// branch it is control-dependent on relevant.
func (b *relevanceBuilder) markLive(blk *ir.Block) {
	if blk == nil || b.rel.live[blk] {
		return
	}
	b.rel.live[blk] = true
	for _, br := range b.cd[blk] {
		if t := br.Term(); t != nil {
			b.mark(t)
		}
	}
}

// run drains the worklist to the closure fixpoint.
func (b *relevanceBuilder) run() {
	for len(b.work) > 0 {
		it := b.work[len(b.work)-1]
		b.work = b.work[:len(b.work)-1]
		b.propagate(it.in, it.full)
	}
}

func (b *relevanceBuilder) propagate(in *ir.Instr, full bool) {
	blk := in.Blk
	if blk != nil {
		b.markLive(blk)
		// The function containing relevant code must be reachable: every
		// call site naming it is kept.
		if fn := blk.Fn; fn != nil && !b.needed[fn] {
			b.needed[fn] = true
			for _, call := range b.callSites[fn] {
				b.mark(call)
			}
		}
	}

	// Data dependence: every operand the engine will evaluate.
	for _, a := range in.Args {
		ai, ok := a.(*ir.Instr)
		if !ok {
			continue
		}
		b.mark(ai)
		// A relevant use of a call's result needs the callee's returns.
		if ai.Op == ir.OpCall && ai.Callee != nil && !ai.Callee.IsDeclaration() {
			for _, cb := range ai.Callee.Blocks {
				if t := cb.Term(); t != nil && t.Op == ir.OpRet {
					b.mark(t)
					for _, ra := range t.Args {
						if ri, ok := ra.(*ir.Instr); ok {
							b.mark(ri)
						}
					}
				}
			}
		}
	}

	// The remaining rules concern the instruction's RESULT: which value a
	// phi carries, what a load reads. A trap-only member's result feeds
	// nothing relevant, so those rules don't apply to it.
	if !full {
		return
	}

	switch in.Op {
	case ir.OpPhi:
		// A phi also depends on WHICH edge entered the block; keep each
		// incoming block's terminator (and thereby, via control
		// dependence of those blocks, the branches that choose among
		// them).
		for _, p := range in.Incoming {
			b.markLive(p)
			if t := p.Term(); t != nil {
				b.mark(t)
			}
		}
	case ir.OpLoad:
		b.propagateLoad(in)
	}
}

// propagateLoad keeps the stores a value-relevant load could observe.
// Non-escaping objects cannot be named by an unknown pointer (the
// escape walk mirrors knownObjectAccess resolution exactly), so only
// escaping objects couple the known and unknown store populations.
func (b *relevanceBuilder) propagateLoad(in *ir.Instr) {
	base, _, _, ok := knownObjectAccess(in.Args[0])
	if ok {
		for _, st := range b.storesByObj[base] {
			b.mark(st)
		}
		if b.escapes[base] && !b.unknownHot {
			b.unknownHot = true
			for _, st := range b.unknownStore {
				b.mark(st)
			}
		}
		return
	}
	// Unknown pointer: could observe any escaping object, or whatever an
	// unknown-pointer store last wrote.
	if !b.escStoresHot {
		b.escStoresHot = true
		for _, st := range b.unknownStore {
			b.mark(st)
		}
		for base, sts := range b.storesByObj {
			if !b.escapes[base] {
				continue
			}
			for _, st := range sts {
				b.mark(st)
			}
		}
	}
}
