package passes

import "overify/internal/ir"

// CSE performs dominator-scoped common-subexpression elimination on pure
// instructions. Repeated subexpressions cost a symbolic executor twice:
// they are interpreted again and they enlarge the constraint terms sent
// to the solver, so deduplication helps verification even more than it
// helps a CPU (paper Table 2, "arithmetic simplifications").
// CSE only deletes pure instructions; the CFG analyses survive.
func CSE() Pass {
	return funcPass{name: "cse", preserves: AllAnalyses, run: cseFunc}
}

func cseFunc(f *ir.Function, cx *Context) bool {
	defer dumpOnPanic("cse", f)
	dt := cx.Dom(f)
	s := cx.scratch()
	s.children = dt.ChildrenInto(s.children)
	children := s.children
	changed := false

	// When the function contains no stores and no calls (common after
	// mem2reg plus full inlining: the remaining memory is a read-only
	// input buffer), loads behave like pure functions of their pointer
	// and participate in CSE. A dominating identical load traps exactly
	// when the dominated one would, so the replacement is also
	// trap-equivalent.
	memSafe := true
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore || in.Op == ir.OpCall {
				memSafe = false
			}
		}
	}

	keyOf := func(in *ir.Instr) (cseKey, bool) {
		k, ok := cseKeyOf(in)
		if !ok && memSafe && in.Op == ir.OpLoad {
			k, ok = cseKey{op: ir.OpLoad, typ: in.Typ, args: [3]cseOperand{operandKey(in.Args[0])}}, true
		}
		return k, ok
	}

	// Scoped hash table: one map holds the definitions of every block on
	// the dominator-tree path being walked. A key goes in only when no
	// enclosing scope holds it, so leaving a block deletes exactly the
	// keys it inserted; inserted logs those instructions. Their keys can
	// be recomputed on the way out because an instruction's operands
	// dominate it, so nothing the subtree replaces is among them. The
	// table is therefore empty when the walk ends, and the compile's
	// scratch hands the same one to every function.
	avail := s.cse
	inserted := s.cseLog[:0]
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		mark := len(inserted)
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			k, ok := keyOf(in)
			if !ok {
				kept = append(kept, in)
				continue
			}
			if prev := avail[k]; prev != nil {
				ir.ReplaceUses(f, in, prev)
				in.Blk = nil
				cx.Stats.InstrsCSEd++
				changed = true
				continue
			}
			avail[k] = in
			inserted = append(inserted, in)
			kept = append(kept, in)
		}
		b.Instrs = kept
		for _, c := range children.Of(b) {
			walk(c)
		}
		for _, in := range inserted[mark:] {
			k, _ := keyOf(in)
			delete(avail, k)
		}
		inserted = inserted[:mark]
	}
	if e := f.Entry(); e != nil {
		walk(e)
	}
	s.cseLog = inserted
	return changed
}

// cseKey is the structural identity of a pure instruction: two
// instructions with equal keys compute the same value. IR types are
// value types, so the struct is comparable and hashes without rendering
// anything to text.
type cseKey struct {
	op   ir.Op
	typ  ir.Type
	args [3]cseOperand // pure instructions have at most three operands
}

// cseOperand identifies an operand without rendering it: constants by
// width and value (they are allocated per use), globals by pointer (one
// object per module), parameters by position, instructions by SSA number.
type cseOperand struct {
	class int        // 0 constant, 1 null, 2 global, 3 parameter, 4 instruction
	n     uint64     // constant value, parameter position or SSA number
	bits  int        // constants: width
	g     *ir.Global // globals
}

// less is a total order over the distinct operands one well-typed
// instruction can have; it only has to be the same for (a, b) and (b, a).
func (a cseOperand) less(b cseOperand) bool {
	switch {
	case a.class != b.class:
		return a.class < b.class
	case a.g != nil:
		return a.g.Name < b.g.Name
	}
	return a.n < b.n
}

// cseKeyOf builds the key of a pure instruction; ok is false for
// instructions that must not be deduplicated.
func cseKeyOf(in *ir.Instr) (k cseKey, ok bool) {
	if !isPure(in) || in.Op == ir.OpPhi {
		return k, false
	}
	k.op, k.typ = in.Op, in.Typ
	for i, a := range in.Args {
		k.args[i] = operandKey(a)
	}
	// Canonical operand order for commutative operations.
	if in.Op.IsCommutative() && len(in.Args) == 2 && k.args[1].less(k.args[0]) {
		k.args[0], k.args[1] = k.args[1], k.args[0]
	}
	return k, true
}

func operandKey(v ir.Value) cseOperand {
	switch x := v.(type) {
	case *ir.Const:
		return cseOperand{class: 0, n: x.Val, bits: x.Typ.Bits}
	case *ir.Null:
		return cseOperand{class: 1}
	case *ir.Global:
		return cseOperand{class: 2, g: x}
	case *ir.Param:
		return cseOperand{class: 3, n: uint64(x.Idx)}
	case *ir.Instr:
		return cseOperand{class: 4, n: uint64(x.ID)}
	}
	panic("cse: unknown operand kind " + v.Ref())
}
