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

func simplifyBinary(in *ir.Instr) ir.Value {
	t := in.Typ.(ir.IntType)
	a, aConst := constOf(in.Args[0])
	b, bConst := constOf(in.Args[1])

	// Canonicalize constants to the right for commutative ops.
	if aConst && !bConst && in.Op.IsCommutative() {
		in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
		a, aConst = constOf(in.Args[0])
		b, bConst = constOf(in.Args[1])
	}

	if aConst && bConst {
		if r, ok := ir.EvalBin(in.Op, t.Bits, a.Val, b.Val); ok {
			return ir.ConstInt(t, r)
		}
		return nil // division by constant zero: keep the trap
	}

	if flagSelect(in, t) {
		return in
	}

	x := in.Args[0]
	sameOperands := in.Args[0] == in.Args[1]

	switch in.Op {
	case ir.OpAdd:
		if bConst && b.IsZero() {
			return x
		}
	case ir.OpSub:
		if bConst && b.IsZero() {
			return x
		}
		if sameOperands {
			return ir.ConstInt(t, 0)
		}
	case ir.OpMul:
		if bConst && b.IsZero() {
			return ir.ConstInt(t, 0)
		}
		if bConst && b.IsOne() {
			return x
		}
	case ir.OpUDiv, ir.OpSDiv:
		if bConst && b.IsOne() {
			return x
		}
	case ir.OpURem:
		if bConst && b.IsOne() {
			return ir.ConstInt(t, 0)
		}
	case ir.OpAnd:
		if bConst && b.IsZero() {
			return ir.ConstInt(t, 0)
		}
		if bConst && b.IsAllOnes() {
			return x
		}
		if sameOperands {
			return x
		}
	case ir.OpOr:
		if bConst && b.IsZero() {
			return x
		}
		if bConst && b.IsAllOnes() {
			return ir.ConstInt(t, b.Val)
		}
		if sameOperands {
			return x
		}
	case ir.OpXor:
		if bConst && b.IsZero() {
			return x
		}
		if sameOperands {
			return ir.ConstInt(t, 0)
		}
		// xor (xor x, c1), c2 -> xor x, c1^c2 ; in particular double
		// logical negation collapses.
		if inner, ok := in.Args[0].(*ir.Instr); ok && inner.Op == ir.OpXor && bConst {
			if c1, ok := constOf(inner.Args[1]); ok {
				if (c1.Val ^ b.Val) == 0 {
					return inner.Args[0]
				}
				in.Args[0] = inner.Args[0]
				in.Args[1] = ir.ConstInt(t, c1.Val^b.Val)
				return nil
			}
		}
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		if bConst && b.IsZero() {
			return x
		}
		if aConst && a.IsZero() {
			return ir.ConstInt(t, 0)
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
	// Pointer comparisons: only null == null / null != null fold.
	if _, isPtr := in.Args[0].Type().(ir.PtrType); isPtr {
		_, an := in.Args[0].(*ir.Null)
		_, bn := in.Args[1].(*ir.Null)
		if an && bn {
			return ir.Bool(in.Op == ir.OpEq || in.Op == ir.OpULe || in.Op == ir.OpUGe)
		}
		if g, ok := in.Args[0].(*ir.Global); ok && bn {
			_ = g
			return ir.Bool(in.Op == ir.OpNe || in.Op == ir.OpUGt || in.Op == ir.OpUGe)
		}
		if g, ok := in.Args[1].(*ir.Global); ok && an {
			_ = g
			return ir.Bool(in.Op == ir.OpNe || in.Op == ir.OpULt || in.Op == ir.OpULe)
		}
		if in.Args[0] == in.Args[1] {
			return ir.Bool(in.Op == ir.OpEq || in.Op == ir.OpULe || in.Op == ir.OpUGe)
		}
		return nil
	}

	bits := in.Args[0].Type().(ir.IntType).Bits
	a, aConst := constOf(in.Args[0])
	b, bConst := constOf(in.Args[1])
	if aConst && bConst {
		return ir.Bool(ir.EvalCmp(in.Op, bits, a.Val, b.Val))
	}
	if in.Args[0] == in.Args[1] {
		switch in.Op {
		case ir.OpEq, ir.OpULe, ir.OpUGe, ir.OpSLe, ir.OpSGe:
			return ir.Bool(true)
		default:
			return ir.Bool(false)
		}
	}

	// icmp (zext i1 x to N), 0  ->  x == 0 reduces to !x ; x != 0 is x.
	if z, ok := in.Args[0].(*ir.Instr); ok && z.Op == ir.OpZExt && bConst {
		if it, ok := z.Args[0].Type().(ir.IntType); ok && it.Bits == 1 {
			switch {
			case in.Op == ir.OpNe && b.IsZero():
				return z.Args[0]
			case in.Op == ir.OpEq && b.IsOne():
				return z.Args[0]
			case in.Op == ir.OpEq && b.IsZero(), in.Op == ir.OpNe && b.IsOne():
				// Build "xor x, true" in place of the compare.
				in.Op = ir.OpXor
				in.Typ = ir.I1
				in.Args = []ir.Value{z.Args[0], ir.Bool(true)}
				return nil
			}
		}
	}

	// icmp i1 x, 0 / x, 1 on boolean values.
	if bits == 1 && bConst {
		switch {
		case in.Op == ir.OpNe && b.IsZero(), in.Op == ir.OpEq && b.IsOne():
			return in.Args[0]
		case in.Op == ir.OpEq && b.IsZero(), in.Op == ir.OpNe && b.IsOne():
			in.Op = ir.OpXor
			in.Typ = ir.I1
			in.Args = []ir.Value{in.Args[0], ir.Bool(true)}
			return nil
		}
	}

	// Unsigned ranges against 0: x ult 0 is false, x uge 0 is true.
	if bConst && b.IsZero() {
		switch in.Op {
		case ir.OpULt:
			return ir.Bool(false)
		case ir.OpUGe:
			return ir.Bool(true)
		case ir.OpULe:
			in.Op = ir.OpEq
			return nil
		case ir.OpUGt:
			in.Op = ir.OpNe
			return nil
		}
	}
	return nil
}

func simplifySelect(in *ir.Instr) ir.Value {
	if c, ok := constOf(in.Args[0]); ok {
		if c.IsZero() {
			return in.Args[2]
		}
		return in.Args[1]
	}
	if in.Args[1] == in.Args[2] {
		return in.Args[1]
	}
	// select c, true, false -> c ; select c, false, true -> !c (i1 only).
	if t, ok := in.Typ.(ir.IntType); ok && t.Bits == 1 {
		tv, tc := constOf(in.Args[1])
		fv, fc := constOf(in.Args[2])
		if tc && fc {
			if tv.IsOne() && fv.IsZero() {
				return in.Args[0]
			}
			if tv.IsZero() && fv.IsOne() {
				in.Op = ir.OpXor
				in.Args = []ir.Value{in.Args[0], ir.Bool(true)}
				return nil
			}
		}
	}
	return nil
}

func simplifyCast(in *ir.Instr) ir.Value {
	from := in.Args[0].Type().(ir.IntType).Bits
	to := in.Typ.(ir.IntType).Bits
	if c, ok := constOf(in.Args[0]); ok {
		return ir.ConstInt(in.Typ.(ir.IntType), ir.EvalCast(in.Op, from, to, c.Val))
	}
	// Cast chains: trunc(zext/sext x) where the widths line up.
	if inner, ok := in.Args[0].(*ir.Instr); ok && (inner.Op == ir.OpZExt || inner.Op == ir.OpSExt) {
		// Only an extension's source type is read: Type() on another
		// instruction's operand (a pointer, say) may allocate.
		if innerFrom, okInner := inner.Args[0].Type().(ir.IntType); okInner {
			if in.Op == ir.OpTrunc {
				switch {
				case innerFrom.Bits == to:
					return inner.Args[0] // trunc(ext x) back to original width
				case innerFrom.Bits > to:
					in.Args[0] = inner.Args[0] // truncate the original directly
					return nil
				case innerFrom.Bits < to:
					// Still an extension overall; re-express as ext of source.
					in.Op = inner.Op
					in.Args[0] = inner.Args[0]
					return nil
				}
			}
			if in.Op == ir.OpZExt && inner.Op == ir.OpZExt {
				in.Args[0] = inner.Args[0] // zext(zext x) -> zext x
				return nil
			}
			if in.Op == ir.OpSExt && inner.Op == ir.OpSExt {
				in.Args[0] = inner.Args[0]
				return nil
			}
			// sext(zext x) is zext overall.
			if in.Op == ir.OpSExt && inner.Op == ir.OpZExt {
				in.Op = ir.OpZExt
				in.Args[0] = inner.Args[0]
				return nil
			}
		}
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
