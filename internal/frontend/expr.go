package frontend

import (
	"fmt"

	"overify/internal/ir"
	"overify/internal/lang"
)

// exprOpt lowers an expression whose value may be discarded (expression
// statements); void calls are allowed here.
func (fl *fnLowerer) exprOpt(e lang.Expr) (typedVal, error) {
	if c, ok := e.(*lang.Call); ok {
		return fl.call(c, true)
	}
	return fl.expr(e)
}

// expr lowers e to an rvalue.
func (fl *fnLowerer) expr(e lang.Expr) (typedVal, error) {
	switch x := e.(type) {
	case *lang.IntLit:
		// Integer and char literals have type int in C.
		return typedVal{v: ir.ConstInt(ir.I32, x.Val), ct: lang.TypeInt}, nil

	case *lang.StrLit:
		g := fl.internString(x.Val)
		return typedVal{v: g, ct: lang.PtrTo(lang.TypeChar)}, nil

	case *lang.Ident:
		vi, ok := fl.lookup(x.Name)
		if !ok {
			return typedVal{}, errAt(x.Position(), "undefined identifier %q", x.Name)
		}
		if vi.ct.Kind == lang.CArray {
			// Arrays decay to a pointer to their first element.
			return typedVal{v: vi.addr, ct: lang.PtrTo(vi.ct.Elem)}, nil
		}
		return typedVal{v: fl.bd.Load(vi.addr), ct: vi.ct}, nil

	case *lang.Unary:
		return fl.unary(x)

	case *lang.Postfix:
		return fl.incDec(x.X, x.Op == lang.Inc, false, x.Position())

	case *lang.Binary:
		return fl.binary(x)

	case *lang.AssignExpr:
		return fl.assign(x)

	case *lang.Cond:
		return fl.ternary(x)

	case *lang.Call:
		return fl.call(x, false)

	case *lang.Index:
		addr, ct, err := fl.indexAddr(x)
		if err != nil {
			return typedVal{}, err
		}
		return typedVal{v: fl.bd.Load(addr), ct: ct}, nil

	case *lang.CastExpr:
		return fl.cast(x)
	}
	return typedVal{}, errAt(e.Position(), "unsupported expression")
}

func (fl *fnLowerer) internString(s string) *ir.Global {
	if g, ok := fl.strings[s]; ok {
		return g
	}
	g := ir.StringGlobal(fmt.Sprintf("str%d", fl.nstr), s)
	fl.nstr++
	fl.mod.AddGlobal(g)
	fl.strings[s] = g
	return g
}

// lvalue resolves e to an address and the MiniC type of the stored value.
func (fl *fnLowerer) lvalue(e lang.Expr) (ir.Value, *lang.CType, error) {
	switch x := e.(type) {
	case *lang.Ident:
		vi, ok := fl.lookup(x.Name)
		if !ok {
			return nil, nil, errAt(x.Position(), "undefined identifier %q", x.Name)
		}
		if vi.ct.Kind == lang.CArray {
			return nil, nil, errAt(x.Position(), "array %q is not assignable", x.Name)
		}
		return vi.addr, vi.ct, nil
	case *lang.Unary:
		if x.Op == lang.Star {
			tv, err := fl.expr(x.X)
			if err != nil {
				return nil, nil, err
			}
			if !tv.ct.IsPointer() {
				return nil, nil, errAt(x.Position(), "cannot dereference %s", tv.ct)
			}
			return tv.v, tv.ct.Elem, nil
		}
	case *lang.Index:
		return fl.indexAddr(x)
	}
	return nil, nil, errAt(e.Position(), "expression is not assignable")
}

func (fl *fnLowerer) indexAddr(x *lang.Index) (ir.Value, *lang.CType, error) {
	base, err := fl.expr(x.X)
	if err != nil {
		return nil, nil, err
	}
	if !base.ct.IsPointer() {
		return nil, nil, errAt(x.Position(), "cannot index %s", base.ct)
	}
	idx, err := fl.expr(x.I)
	if err != nil {
		return nil, nil, err
	}
	if !idx.ct.IsInteger() {
		return nil, nil, errAt(x.Position(), "index must be integer, got %s", idx.ct)
	}
	i64 := fl.bd.IntCast(idx.v, ir.I64, idx.ct.Signed())
	return fl.bd.GEP(base.v, i64), base.ct.Elem, nil
}

func (fl *fnLowerer) unary(x *lang.Unary) (typedVal, error) {
	switch x.Op {
	case lang.Star:
		tv, err := fl.expr(x.X)
		if err != nil {
			return typedVal{}, err
		}
		if !tv.ct.IsPointer() {
			return typedVal{}, errAt(x.Position(), "cannot dereference %s", tv.ct)
		}
		return typedVal{v: fl.bd.Load(tv.v), ct: tv.ct.Elem}, nil

	case lang.Amp:
		addr, ct, err := fl.lvalue(x.X)
		if err != nil {
			return typedVal{}, err
		}
		return typedVal{v: addr, ct: lang.PtrTo(ct)}, nil

	case lang.Minus:
		tv, err := fl.expr(x.X)
		if err != nil {
			return typedVal{}, err
		}
		pv, ct := fl.promote(tv)
		zero := ir.ConstInt(irType(ct).(ir.IntType), 0)
		return typedVal{v: fl.bd.Bin(ir.OpSub, zero, pv), ct: ct}, nil

	case lang.Tilde:
		tv, err := fl.expr(x.X)
		if err != nil {
			return typedVal{}, err
		}
		pv, ct := fl.promote(tv)
		ones := ir.ConstInt(irType(ct).(ir.IntType), ^uint64(0))
		return typedVal{v: fl.bd.Bin(ir.OpXor, pv, ones), ct: ct}, nil

	case lang.Bang:
		cond, err := fl.truthy(x.X)
		if err != nil {
			return typedVal{}, err
		}
		inv := fl.bd.Bin(ir.OpXor, cond, ir.Bool(true))
		return typedVal{v: fl.bd.ZExt(inv, ir.I32), ct: lang.TypeInt}, nil

	case lang.Inc, lang.Dec:
		return fl.incDec(x.X, x.Op == lang.Inc, true, x.Position())
	}
	return typedVal{}, errAt(x.Position(), "unsupported unary operator %s", x.Op)
}

// incDec lowers ++/-- (pre or post).
func (fl *fnLowerer) incDec(target lang.Expr, inc, pre bool, pos lang.Pos) (typedVal, error) {
	addr, ct, err := fl.lvalue(target)
	if err != nil {
		return typedVal{}, err
	}
	old := fl.bd.Load(addr)
	var nv ir.Value
	if ct.IsPointer() {
		delta := int64(1)
		if !inc {
			delta = -1
		}
		nv = fl.bd.GEP(old, ir.ConstInt(ir.I64, uint64(delta)))
	} else {
		one := ir.ConstInt(irType(ct).(ir.IntType), 1)
		op := ir.OpAdd
		if !inc {
			op = ir.OpSub
		}
		nv = fl.bd.Bin(op, old, one)
	}
	fl.bd.Store(nv, addr)
	if pre {
		return typedVal{v: nv, ct: ct}, nil
	}
	return typedVal{v: old, ct: ct}, nil
}

// promote applies C integer promotion: types narrower than int widen to
// signed int.
func (fl *fnLowerer) promote(tv typedVal) (ir.Value, *lang.CType) {
	if !tv.ct.IsInteger() {
		return tv.v, tv.ct
	}
	if tv.ct.Bits() < 32 {
		return fl.bd.IntCast(tv.v, ir.I32, tv.ct.Signed()), lang.TypeInt
	}
	return tv.v, tv.ct
}

// commonType returns the C "usual arithmetic conversions" result for two
// promoted integer types (int, uint, long, ulong).
func commonType(a, b *lang.CType) *lang.CType {
	rank := func(t *lang.CType) int {
		if t.Bits() == 64 {
			return 2
		}
		return 1
	}
	ra, rb := rank(a), rank(b)
	switch {
	case a.Kind == b.Kind:
		return a
	case a.Signed() == b.Signed():
		if ra >= rb {
			return a
		}
		return b
	}
	// Mixed signedness.
	signed, unsigned := a, b
	if !a.Signed() {
		signed, unsigned = b, a
	}
	if rank(unsigned) >= rank(signed) {
		return unsigned
	}
	// Signed type has greater rank (long vs uint): long represents all
	// uint values.
	return signed
}

// arith converts both operands for a binary arithmetic op, returning the
// converted values and the result type.
func (fl *fnLowerer) arith(l, r typedVal) (ir.Value, ir.Value, *lang.CType) {
	lv, lt := fl.promote(l)
	rv, rt := fl.promote(r)
	ct := commonType(lt, rt)
	it := irType(ct).(ir.IntType)
	lv = fl.bd.IntCast(lv, it, lt.Signed())
	rv = fl.bd.IntCast(rv, it, rt.Signed())
	return lv, rv, ct
}

func (fl *fnLowerer) binary(x *lang.Binary) (typedVal, error) {
	switch x.Op {
	case lang.AndAnd, lang.OrOr:
		return fl.shortCircuit(x)
	}
	l, err := fl.expr(x.L)
	if err != nil {
		return typedVal{}, err
	}
	r, err := fl.expr(x.R)
	if err != nil {
		return typedVal{}, err
	}
	return fl.operator(x.Op, l, r, x.Position())
}

// operator applies a binary operator other than && and || to lowered
// operands. It is the one lowering of the operators: x op y and the
// compound assignment x op= y both come here.
func (fl *fnLowerer) operator(k lang.Kind, l, r typedVal, pos lang.Pos) (typedVal, error) {
	// Pointer arithmetic and comparisons.
	if l.ct.IsPointer() || r.ct.IsPointer() {
		return fl.pointerBinary(k, l, r, pos)
	}
	if !l.ct.IsInteger() || !r.ct.IsInteger() {
		return typedVal{}, errAt(pos, "invalid operands %s and %s", l.ct, r.ct)
	}

	switch k {
	case lang.Plus, lang.Minus, lang.Star, lang.Slash, lang.Percent,
		lang.Amp, lang.Pipe, lang.Caret:
		lv, rv, ct := fl.arith(l, r)
		var op ir.Op
		switch k {
		case lang.Plus:
			op = ir.OpAdd
		case lang.Minus:
			op = ir.OpSub
		case lang.Star:
			op = ir.OpMul
		case lang.Slash:
			if ct.Signed() {
				op = ir.OpSDiv
			} else {
				op = ir.OpUDiv
			}
		case lang.Percent:
			if ct.Signed() {
				op = ir.OpSRem
			} else {
				op = ir.OpURem
			}
		case lang.Amp:
			op = ir.OpAnd
		case lang.Pipe:
			op = ir.OpOr
		case lang.Caret:
			op = ir.OpXor
		}
		return typedVal{v: fl.bd.Bin(op, lv, rv), ct: ct}, nil

	case lang.Shl, lang.Shr:
		lv, lt := fl.promote(l)
		rv, rt := fl.promote(r)
		it := irType(lt).(ir.IntType)
		rv = fl.bd.IntCast(rv, it, rt.Signed())
		var op ir.Op
		if k == lang.Shl {
			op = ir.OpShl
		} else if lt.Signed() {
			op = ir.OpAShr
		} else {
			op = ir.OpLShr
		}
		return typedVal{v: fl.bd.Bin(op, lv, rv), ct: lt}, nil

	case lang.Eq, lang.Ne, lang.Lt, lang.Le, lang.Gt, lang.Ge:
		lv, rv, ct := fl.arith(l, r)
		op := cmpOp(k, ct.Signed())
		c := fl.bd.Cmp(op, lv, rv)
		return typedVal{v: fl.bd.ZExt(c, ir.I32), ct: lang.TypeInt}, nil
	}
	return typedVal{}, errAt(pos, "unsupported binary operator %s", k)
}

func cmpOp(k lang.Kind, signed bool) ir.Op {
	switch k {
	case lang.Eq:
		return ir.OpEq
	case lang.Ne:
		return ir.OpNe
	case lang.Lt:
		if signed {
			return ir.OpSLt
		}
		return ir.OpULt
	case lang.Le:
		if signed {
			return ir.OpSLe
		}
		return ir.OpULe
	case lang.Gt:
		if signed {
			return ir.OpSGt
		}
		return ir.OpUGt
	default:
		if signed {
			return ir.OpSGe
		}
		return ir.OpUGe
	}
}

func (fl *fnLowerer) pointerBinary(k lang.Kind, l, r typedVal, pos lang.Pos) (typedVal, error) {
	// Normalize "int + ptr" to "ptr + int".
	if !l.ct.IsPointer() && k == lang.Plus {
		l, r = r, l
	}
	switch k {
	case lang.Plus, lang.Minus:
		if l.ct.IsPointer() && r.ct.IsInteger() {
			idx := fl.bd.IntCast(r.v, ir.I64, r.ct.Signed())
			if k == lang.Minus {
				idx = fl.bd.Bin(ir.OpSub, ir.ConstInt(ir.I64, 0), idx)
			}
			return typedVal{v: fl.bd.GEP(l.v, idx), ct: l.ct}, nil
		}
		if k == lang.Minus && l.ct.IsPointer() && r.ct.IsPointer() {
			return typedVal{v: fl.bd.PtrDiff(l.v, r.v), ct: lang.TypeLong}, nil
		}
	case lang.Eq, lang.Ne, lang.Lt, lang.Le, lang.Gt, lang.Ge:
		lv, rv, err := fl.matchPointers(l, r, pos)
		if err != nil {
			return typedVal{}, err
		}
		c := fl.bd.Cmp(cmpOp(k, false), lv, rv)
		return typedVal{v: fl.bd.ZExt(c, ir.I32), ct: lang.TypeInt}, nil
	}
	return typedVal{}, errAt(pos, "invalid pointer operation %s on %s and %s", k, l.ct, r.ct)
}

// matchPointers converts operands of a pointer comparison to a common IR
// pointer type; an integer constant 0 becomes null.
func (fl *fnLowerer) matchPointers(l, r typedVal, pos lang.Pos) (ir.Value, ir.Value, error) {
	if l.ct.IsPointer() && r.ct.IsInteger() {
		if c, ok := r.v.(*ir.Const); ok && c.IsZero() {
			return l.v, ir.NullPtr(irType(l.ct.Elem)), nil
		}
		return nil, nil, errAt(pos, "comparison of pointer with non-zero integer")
	}
	if r.ct.IsPointer() && l.ct.IsInteger() {
		if c, ok := l.v.(*ir.Const); ok && c.IsZero() {
			return ir.NullPtr(irType(r.ct.Elem)), r.v, nil
		}
		return nil, nil, errAt(pos, "comparison of pointer with non-zero integer")
	}
	if !ir.SameType(l.v.Type(), r.v.Type()) {
		return nil, nil, errAt(pos, "comparison of incompatible pointers %s and %s", l.ct, r.ct)
	}
	return l.v, r.v, nil
}

// shortCircuit lowers && and || with explicit control flow and a result
// slot, mirroring clang -O0.
func (fl *fnLowerer) shortCircuit(x *lang.Binary) (typedVal, error) {
	slot := fl.bd.Alloca(ir.I32, 1)
	lv, err := fl.truthy(x.L)
	if err != nil {
		return typedVal{}, err
	}
	rhsB := fl.fn.NewBlock("sc.rhs")
	shortB := fl.fn.NewBlock("sc.short")
	endB := fl.fn.NewBlock("sc.end")
	if x.Op == lang.AndAnd {
		fl.bd.CondBr(lv, rhsB, shortB)
	} else {
		fl.bd.CondBr(lv, shortB, rhsB)
	}
	// Short-circuit arm: result is 0 for &&, 1 for ||.
	fl.bd.SetBlock(shortB)
	if x.Op == lang.AndAnd {
		fl.bd.Store(ir.ConstInt(ir.I32, 0), slot)
	} else {
		fl.bd.Store(ir.ConstInt(ir.I32, 1), slot)
	}
	fl.bd.Br(endB)
	// RHS arm.
	fl.bd.SetBlock(rhsB)
	rv, err := fl.truthy(x.R)
	if err != nil {
		return typedVal{}, err
	}
	fl.bd.Store(fl.bd.ZExt(rv, ir.I32), slot)
	fl.bd.Br(endB)
	fl.bd.SetBlock(endB)
	return typedVal{v: fl.bd.Load(slot), ct: lang.TypeInt}, nil
}

func (fl *fnLowerer) ternary(x *lang.Cond) (typedVal, error) {
	cond, err := fl.truthy(x.C)
	if err != nil {
		return typedVal{}, err
	}
	thenB := fl.fn.NewBlock("cond.then")
	elseB := fl.fn.NewBlock("cond.else")
	endB := fl.fn.NewBlock("cond.end")
	// Lower both arms into a shared slot; the slot's type is fixed after
	// the first arm is known, so lower the then-arm first into a
	// temporary position.
	fl.bd.CondBr(cond, thenB, elseB)

	fl.bd.SetBlock(thenB)
	tv, err := fl.expr(x.T)
	if err != nil {
		return typedVal{}, err
	}
	// Create the slot in the entry path: allocas are hoisted by position
	// independence (alloca has no operands), so emitting it here is fine.
	slot := fl.bd.Alloca(tv.v.Type(), 1)
	fl.bd.Store(tv.v, slot)
	fl.bd.Br(endB)

	fl.bd.SetBlock(elseB)
	fv, err := fl.expr(x.F)
	if err != nil {
		return typedVal{}, err
	}
	fvc, err := fl.convert(fv, tv.ct, x.Position())
	if err != nil {
		return typedVal{}, err
	}
	fl.bd.Store(fvc, slot)
	fl.bd.Br(endB)

	fl.bd.SetBlock(endB)
	return typedVal{v: fl.bd.Load(slot), ct: tv.ct}, nil
}

func (fl *fnLowerer) assign(x *lang.AssignExpr) (typedVal, error) {
	addr, ct, err := fl.lvalue(x.L)
	if err != nil {
		return typedVal{}, err
	}
	if x.Op == lang.Assign {
		rv, err := fl.expr(x.R)
		if err != nil {
			return typedVal{}, err
		}
		v, err := fl.convert(rv, ct, x.Position())
		if err != nil {
			return typedVal{}, err
		}
		fl.bd.Store(v, addr)
		return typedVal{v: v, ct: ct}, nil
	}
	// Compound assignment: x op= y is x = x op y with x's address
	// taken once.
	k, ok := compoundOps[x.Op]
	if !ok {
		return typedVal{}, errAt(x.Position(), "unsupported assignment operator")
	}
	old := typedVal{v: fl.bd.Load(addr), ct: ct}
	rv, err := fl.expr(x.R)
	if err != nil {
		return typedVal{}, err
	}
	result, err := fl.operator(k, old, rv, x.Position())
	if err != nil {
		return typedVal{}, err
	}
	v, err := fl.convert(result, ct, x.Position())
	if err != nil {
		return typedVal{}, err
	}
	fl.bd.Store(v, addr)
	return typedVal{v: v, ct: ct}, nil
}

// compoundOps maps each compound assignment operator to its operator.
var compoundOps = map[lang.Kind]lang.Kind{
	lang.PlusAssign: lang.Plus, lang.MinusAssign: lang.Minus,
	lang.StarAssign: lang.Star, lang.SlashAssign: lang.Slash,
	lang.PercentAssign: lang.Percent, lang.AmpAssign: lang.Amp,
	lang.PipeAssign: lang.Pipe, lang.CaretAssign: lang.Caret,
	lang.ShlAssign: lang.Shl, lang.ShrAssign: lang.Shr,
}

func (fl *fnLowerer) call(x *lang.Call, allowVoid bool) (typedVal, error) {
	fi, ok := fl.funcs[x.Name]
	if !ok {
		return typedVal{}, errAt(x.Position(), "call to undefined function %q", x.Name)
	}
	if len(x.Args) != len(fi.params) {
		return typedVal{}, errAt(x.Position(), "call to %s with %d args, want %d",
			x.Name, len(x.Args), len(fi.params))
	}
	args := make([]ir.Value, len(x.Args))
	for i, a := range x.Args {
		tv, err := fl.expr(a)
		if err != nil {
			return typedVal{}, err
		}
		v, err := fl.convert(tv, fi.params[i], a.Position())
		if err != nil {
			return typedVal{}, err
		}
		args[i] = v
	}
	res := fl.bd.Call(fi.irFunc, args...)
	if fi.ret.IsVoid() {
		if !allowVoid {
			return typedVal{}, errAt(x.Position(), "void value of %s() used", x.Name)
		}
		return typedVal{v: nil, ct: lang.TypeVoid}, nil
	}
	return typedVal{v: res, ct: fi.ret}, nil
}

func (fl *fnLowerer) cast(x *lang.CastExpr) (typedVal, error) {
	tv, err := fl.expr(x.X)
	if err != nil {
		return typedVal{}, err
	}
	if x.To.IsVoid() {
		return typedVal{v: nil, ct: lang.TypeVoid}, nil
	}
	v, err := fl.convert(tv, x.To, x.Position())
	if err != nil {
		return typedVal{}, err
	}
	return typedVal{v: v, ct: x.To}, nil
}

// convert coerces tv to MiniC type "to", inserting width changes as
// needed. Pointer conversions require identical IR representations
// (e.g. char* <-> unsigned char*); integer 0 converts to a null pointer.
func (fl *fnLowerer) convert(tv typedVal, to *lang.CType, pos lang.Pos) (ir.Value, error) {
	to = to.Decay()
	from := tv.ct.Decay()
	switch {
	case from.IsInteger() && to.IsInteger():
		return fl.bd.IntCast(tv.v, irType(to).(ir.IntType), from.Signed()), nil
	case from.IsPointer() && to.IsPointer():
		if !ir.SameType(irType(from), irType(to)) {
			return nil, errAt(pos, "incompatible pointer conversion %s to %s", from, to)
		}
		return tv.v, nil
	case from.IsInteger() && to.IsPointer():
		if c, ok := tv.v.(*ir.Const); ok && c.IsZero() {
			return ir.NullPtr(irType(to.Elem)), nil
		}
		return nil, errAt(pos, "cannot convert %s to %s", from, to)
	}
	return nil, errAt(pos, "cannot convert %s to %s", from, to)
}

// truthy lowers e and compares it against zero/null, yielding an i1.
func (fl *fnLowerer) truthy(e lang.Expr) (ir.Value, error) {
	tv, err := fl.expr(e)
	if err != nil {
		return nil, err
	}
	if tv.ct.IsPointer() {
		return fl.bd.Cmp(ir.OpNe, tv.v, ir.NullPtr(irType(tv.ct.Elem))), nil
	}
	if !tv.ct.IsInteger() {
		return nil, errAt(e.Position(), "%s is not a condition", tv.ct)
	}
	it := irType(tv.ct).(ir.IntType)
	return fl.bd.Cmp(ir.OpNe, tv.v, ir.ConstInt(it, 0)), nil
}
