package passes

import (
	"overify/internal/ir"
)

// Simplify is the instruction-combining pass: constant folding, algebraic
// identities, cast and comparison chains, select and phi degeneration.
// The paper's "Instruction simplification" section notes these are "good
// for execution speed, but can be even better for verification": every
// folded instruction is one the symbolic executor never interprets and
// one fewer term in its path constraints.
// Arithmetic on a 0/1 flag becomes a select (flagSelect): the verified
// libc's branch-free "hit*i + (1-hit)*last" reaches the solver as
// "hit ? i : last", not as a multiplication chain over every byte.
// Folding replaces and deletes instructions but never rewrites a
// terminator's successors (simplifycfg does that), so the CFG analyses
// survive.
func Simplify() Pass {
	return funcPass{name: "simplify", preserves: AllAnalyses, run: simplifyFunc}
}

func simplifyFunc(f *ir.Function, cx *Context) bool {
	defer dumpOnPanic("simplify", f)
	changed := false
	// Iterate to a fixpoint: folding one instruction can expose more.
	for round := 0; round < 50; round++ {
		n := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Blk == nil {
					continue // removed this round
				}
				switch v := simplifyInstr(f, in); v {
				case nil:
				case ir.Value(in): // rewritten in place as a select
					n++
				default:
					ir.ReplaceUses(f, in, v)
					in.Blk.Remove(in)
					n++
				}
			}
		}
		if n == 0 {
			break
		}
		cx.Stats.InstrsFolded += n
		changed = true
	}
	return changed
}

// simplifyInstr returns a replacement value for in, in itself when a
// flag select rewrote it in place, or nil if it cannot be simplified
// away.
func simplifyInstr(f *ir.Function, in *ir.Instr) ir.Value {
	switch {
	case in.Op.IsBinary():
		return simplifyBinary(in)
	case in.Op.IsCmp():
		return simplifyCmp(in)
	}
	switch in.Op {
	case ir.OpSelect:
		return simplifySelect(in)
	case ir.OpZExt, ir.OpSExt, ir.OpTrunc:
		return simplifyCast(in)
	case ir.OpPhi:
		return simplifyPhi(in)
	case ir.OpGEP:
		// gep p, 0 -> p
		if c, ok := in.Args[1].(*ir.Const); ok && c.IsZero() {
			return in.Args[0]
		}
		// gep (gep p, a), b -> gep p, a+b only when a+b is constant
		// (otherwise we would need to insert an add instruction).
		if base, ok := in.Args[0].(*ir.Instr); ok && base.Op == ir.OpGEP {
			c1, ok1 := base.Args[1].(*ir.Const)
			c2, ok2 := in.Args[1].(*ir.Const)
			if ok1 && ok2 {
				in.Args[0] = base.Args[0]
				in.Args[1] = ir.ConstInt(ir.I64, c1.Val+c2.Val)
				return nil // simplified in place; keep instruction
			}
		}
	}
	return nil
}

func constOf(v ir.Value) (*ir.Const, bool) {
	c, ok := v.(*ir.Const)
	return c, ok
}

// operand is what the shared identity table (ir/algebra.go) sees of v.
func operand(v ir.Value) ir.Operand {
	if c, ok := v.(*ir.Const); ok {
		return ir.Operand{Val: c.Val, Const: true}
	}
	return ir.Operand{}
}

// applyFold carries out the table's answer for in: the replacement
// value, or nil when in was rewritten in place or nothing folds.
func applyFold(in *ir.Instr, f ir.Fold) ir.Value {
	switch f.Kind {
	case ir.FoldArg:
		return in.Args[f.Arg]
	case ir.FoldConst:
		return ir.ConstInt(in.Typ.(ir.IntType), f.Val)
	case ir.FoldNot:
		in.Op, in.Typ = ir.OpXor, ir.I1
		in.Args = []ir.Value{in.Args[f.Arg], ir.Bool(true)}
	case ir.FoldOp:
		in.Op = f.Op
	}
	return nil
}

func simplifyBinary(in *ir.Instr) ir.Value {
	t := in.Typ.(ir.IntType)
	// Canonicalize constants to the right for commutative ops.
	_, aConst := constOf(in.Args[0])
	if _, bConst := constOf(in.Args[1]); aConst && !bConst && in.Op.IsCommutative() {
		in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
	}
	// IR only: flagSelect turns flag arithmetic into the select the
	// executor then builds as a term. It never fires on two constants,
	// so constant folding still comes first.
	if flagSelect(in, t) {
		return in
	}
	f := ir.FoldBin(in.Op, t.Bits, operand(in.Args[0]), operand(in.Args[1]), in.Args[0] == in.Args[1])
	if f.Kind != ir.NoFold {
		return applyFold(in, f)
	}
	// IR only: xor (xor x, c1), c2 -> xor x, c1^c2, rewritten in place
	// (the builder rebuilds the term instead); in particular double
	// logical negation collapses.
	inner, ok := in.Args[0].(*ir.Instr)
	b, bConst := constOf(in.Args[1])
	if in.Op == ir.OpXor && ok && inner.Op == ir.OpXor && bConst {
		if c1, ok := constOf(inner.Args[1]); ok {
			if (c1.Val ^ b.Val) == 0 {
				return inner.Args[0]
			}
			in.Args[0] = inner.Args[0]
			in.Args[1] = ir.ConstInt(t, c1.Val^b.Val)
		}
	}
	return nil
}

// flagSelect rewrites in place, as a select, arithmetic whose operand is
// a 0/1 flag (h an i1, c any select condition):
//
//	mul x, zext h                   -> select h, x, 0
//	sub C, zext h                   -> select h, C-1, C
//	mul (select c, k1, k2), x       -> select c, k1?x:0, k2?x:0  (k1, k2 in {0, 1})
//	add/or (select c, a1, b1), (select c, a2, b2)
//	                                -> select c, a, b  (a1 or a2 is 0, b1 or b2 is 0;
//	                                   a and b are the other arms)
//
// Chained, they turn "h*x + (1-h)*y" into "select h, x, y". It
// allocates only when it fires.
func flagSelect(in *ir.Instr, t ir.IntType) bool {
	x, y := in.Args[0], in.Args[1]
	switch in.Op {
	case ir.OpMul:
		if h := zextFlag(y); h != nil {
			return toSelect(in, h, x, ir.ConstInt(t, 0))
		}
		if h := zextFlag(x); h != nil {
			return toSelect(in, h, y, ir.ConstInt(t, 0))
		}
		if s := flagArms(x); s != nil {
			return mulSelect(in, s, y, t)
		}
		if s := flagArms(y); s != nil {
			return mulSelect(in, s, x, t)
		}
	case ir.OpSub:
		if c, ok := constOf(x); ok {
			if h := zextFlag(y); h != nil {
				return toSelect(in, h, ir.ConstInt(t, c.Val-1), c)
			}
		}
	case ir.OpAdd, ir.OpOr:
		sx, okx := x.(*ir.Instr)
		sy, oky := y.(*ir.Instr)
		if okx && oky && sx.Op == ir.OpSelect && sy.Op == ir.OpSelect && sx.Args[0] == sy.Args[0] {
			a, okA := otherArm(sx.Args[1], sy.Args[1])
			b, okB := otherArm(sx.Args[2], sy.Args[2])
			if okA && okB {
				return toSelect(in, sx.Args[0], a, b)
			}
		}
	}
	return false
}

// zextFlag returns h when v is "zext h" of an i1 h, else nil.
func zextFlag(v ir.Value) ir.Value {
	z, ok := v.(*ir.Instr)
	if !ok || z.Op != ir.OpZExt {
		return nil
	}
	if it, ok := z.Args[0].Type().(ir.IntType); ok && it.Bits == 1 {
		return z.Args[0]
	}
	return nil
}

// flagArms returns v when it is a select whose arms are constants in
// {0, 1}, else nil.
func flagArms(v ir.Value) *ir.Instr {
	s, ok := v.(*ir.Instr)
	if !ok || s.Op != ir.OpSelect {
		return nil
	}
	k1, ok1 := constOf(s.Args[1])
	k2, ok2 := constOf(s.Args[2])
	if ok1 && ok2 && k1.Val <= 1 && k2.Val <= 1 {
		return s
	}
	return nil
}

// mulSelect rewrites in = mul s, x for a flagArms select s.
func mulSelect(in, s *ir.Instr, x ir.Value, t ir.IntType) bool {
	arm := func(k ir.Value) ir.Value {
		if k.(*ir.Const).IsOne() {
			return x
		}
		return ir.ConstInt(t, 0)
	}
	return toSelect(in, s.Args[0], arm(s.Args[1]), arm(s.Args[2]))
}

// otherArm returns the arm of a pair that is not the constant 0, when
// one of them is.
func otherArm(p, q ir.Value) (ir.Value, bool) {
	if c, ok := constOf(p); ok && c.IsZero() {
		return q, true
	}
	if c, ok := constOf(q); ok && c.IsZero() {
		return p, true
	}
	return nil, false
}

// toSelect turns in into "select cond, a, b".
func toSelect(in *ir.Instr, cond, a, b ir.Value) bool {
	in.Op = ir.OpSelect
	in.Args = []ir.Value{cond, a, b}
	return true
}

func simplifyCmp(in *ir.Instr) ir.Value {
	if _, isPtr := in.Args[0].Type().(ir.PtrType); isPtr {
		// IR only: null and globals are IR values. A global is never
		// null, and null is the same value as null.
		_, an := in.Args[0].(*ir.Null)
		_, bn := in.Args[1].(*ir.Null)
		_, ag := in.Args[0].(*ir.Global)
		_, bg := in.Args[1].(*ir.Global)
		switch {
		case ag && bn:
			return ir.Bool(in.Op == ir.OpNe || in.Op == ir.OpUGt || in.Op == ir.OpUGe)
		case an && bg:
			return ir.Bool(in.Op == ir.OpNe || in.Op == ir.OpULt || in.Op == ir.OpULe)
		}
		same := in.Args[0] == in.Args[1] || an && bn
		return applyFold(in, ir.FoldCmp(in.Op, 64, ir.Operand{}, ir.Operand{}, same))
	}

	bits := in.Args[0].Type().(ir.IntType).Bits
	f := ir.FoldCmp(in.Op, bits, operand(in.Args[0]), operand(in.Args[1]), in.Args[0] == in.Args[1])
	if f.Kind != ir.NoFold {
		return applyFold(in, f)
	}
	b, bConst := constOf(in.Args[1])

	// IR only, as it reads the operand's instruction: icmp (zext i1 x
	// to N), 0 -> x == 0 reduces to !x ; x != 0 is x. (The builder
	// narrows every zext compare instead.)
	if z, ok := in.Args[0].(*ir.Instr); ok && z.Op == ir.OpZExt && bConst {
		if it, ok := z.Args[0].Type().(ir.IntType); ok && it.Bits == 1 {
			switch {
			case in.Op == ir.OpNe && b.IsZero(), in.Op == ir.OpEq && b.IsOne():
				return z.Args[0]
			case in.Op == ir.OpEq && b.IsZero(), in.Op == ir.OpNe && b.IsOne():
				in.Args[0] = z.Args[0]
				return applyFold(in, ir.Fold{Kind: ir.FoldNot})
			}
		}
	}
	return nil
}

func simplifySelect(in *ir.Instr) ir.Value {
	bits := 0 // a pointer select: no i1 rule applies
	if t, ok := in.Typ.(ir.IntType); ok {
		bits = t.Bits
	}
	return applyFold(in, ir.FoldSelect(bits, operand(in.Args[0]), operand(in.Args[1]), operand(in.Args[2]), in.Args[1] == in.Args[2]))
}

func simplifyCast(in *ir.Instr) ir.Value {
	from := in.Args[0].Type().(ir.IntType).Bits
	to := in.Typ.(ir.IntType).Bits
	if f := ir.FoldCast(in.Op, from, to, operand(in.Args[0])); f.Kind != ir.NoFold {
		return applyFold(in, f)
	}
	inner, ok := in.Args[0].(*ir.Instr)
	if !ok || (inner.Op != ir.OpZExt && inner.Op != ir.OpSExt) {
		return nil
	}
	// Only an extension's source type is read: Type() on another
	// instruction's operand (a pointer, say) may allocate.
	src, ok := inner.Args[0].Type().(ir.IntType)
	if !ok {
		return nil
	}
	switch f := ir.FoldCastChain(in.Op, inner.Op, src.Bits, to); f.Kind {
	case ir.FoldArg:
		return inner.Args[0]
	case ir.FoldOp:
		in.Op = f.Op
		in.Args[0] = inner.Args[0]
	}
	return nil
}

func simplifyPhi(in *ir.Instr) ir.Value {
	// A phi whose incoming values are all identical (ignoring self-
	// references) is that value.
	var only ir.Value
	for _, a := range in.Args {
		if a == in {
			continue
		}
		if only == nil {
			only = a
		} else if !sameValue(only, a) {
			return nil
		}
	}
	return only
}

// sameValue reports whether two operands are statically the same value.
func sameValue(a, b ir.Value) bool {
	if a == b {
		return true
	}
	ca, ok1 := a.(*ir.Const)
	cb, ok2 := b.(*ir.Const)
	if ok1 && ok2 {
		return ca.Typ == cb.Typ && ca.Val == cb.Val
	}
	na, ok1 := a.(*ir.Null)
	nb, ok2 := b.(*ir.Null)
	if ok1 && ok2 {
		return ir.SameType(na.Typ, nb.Typ)
	}
	return false
}
