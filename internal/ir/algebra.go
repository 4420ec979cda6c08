package ir

// This file is the one table of value-level identities: the rewrites
// that need only the operands' constants, their widths and whether two
// operands are the same value. The simplify pass applies them to
// instructions and the term builder to terms as it builds them, so the
// two fold one algebra; each side keeps only the rules that read its
// own node shapes. algebra_test.go proves every rule at i8 against
// EvalBin, EvalCmp and EvalCast.
//
// The table is plain functions over plain values: the term builder
// asks it on every node it builds, and asking allocates nothing.

// Operand is what an identity knows of one operand: its value, when it
// is a constant.
type Operand struct {
	Val   uint64
	Const bool
}

// FoldKind says what an identity makes of an operation.
type FoldKind uint8

// What an operation folds to.
const (
	NoFold    FoldKind = iota // no identity applies: keep the operation
	FoldArg                   // operand Arg
	FoldConst                 // the constant Val
	FoldNot                   // the i1 negation of operand Arg
	FoldOp                    // operation Op on the same operands
)

// Fold is an identity's answer. For a cast chain, Arg and Op name the
// inner cast's operand.
type Fold struct {
	Kind FoldKind
	Arg  int
	Val  uint64
	Op   Op
}

func foldArg(i int) Fold      { return Fold{Kind: FoldArg, Arg: i} }
func foldConst(v uint64) Fold { return Fold{Kind: FoldConst, Val: v} }
func foldOp(op Op) Fold       { return Fold{Kind: FoldOp, Op: op} }
func foldBool(v bool) Fold {
	if v {
		return foldConst(1)
	}
	return foldConst(0)
}

// FoldBin folds "x op y" at width bits; same says x and y are one
// value. A commutative op carries a lone constant on the right. Two
// constants fold unless the operation traps, which stays for the
// executor to report.
func FoldBin(op Op, bits int, x, y Operand, same bool) Fold {
	c, ones := y.Val, Mask(bits, ^uint64(0))
	shift := op == OpShl || op == OpLShr || op == OpAShr
	switch {
	case x.Const && y.Const:
		if r, ok := EvalBin(op, bits, x.Val, y.Val); ok {
			return foldConst(r)
		}
	case same && (op == OpSub || op == OpXor):
		return foldConst(0)
	case same && (op == OpAnd || op == OpOr):
		return foldArg(0)
	case x.Const && x.Val == 0 && shift:
		return foldConst(0)
	case !y.Const: // the rest need a constant y
	case c == 0 && (op == OpAdd || op == OpSub || op == OpOr || op == OpXor || shift),
		c == 1 && (op == OpMul || op == OpUDiv || op == OpSDiv),
		c == ones && op == OpAnd:
		return foldArg(0)
	case c == 0 && (op == OpMul || op == OpAnd),
		c == 1 && (op == OpURem || op == OpSRem):
		return foldConst(0)
	case c == ones && op == OpOr:
		return foldConst(ones)
	}
	return Fold{}
}

// FoldCmp folds the comparison "x op y" of two bits-wide operands; same
// says x and y are one value.
func FoldCmp(op Op, bits int, x, y Operand, same bool) Fold {
	c := y.Val
	switch {
	case x.Const && y.Const:
		return foldBool(EvalCmp(op, bits, x.Val, y.Val))
	case same:
		return foldBool(op == OpEq || op == OpULe || op == OpUGe || op == OpSLe || op == OpSGe)
	case !y.Const: // the rest need a constant y
	case bits == 1 && (op == OpNe && c == 0 || op == OpEq && c == 1):
		return foldArg(0)
	case bits == 1 && (op == OpEq && c == 0 || op == OpNe && c == 1):
		return Fold{Kind: FoldNot}
	// Unsigned ranges against 0.
	case c == 0 && (op == OpULt || op == OpUGe):
		return foldBool(op == OpUGe)
	case c == 0 && op == OpULe:
		return foldOp(OpEq)
	case c == 0 && op == OpUGt:
		return foldOp(OpNe)
	}
	return Fold{}
}

// FoldSelect folds "select c, t, f" of bits-wide arms; same says t and
// f are one value.
func FoldSelect(bits int, c, t, f Operand, same bool) Fold {
	switch {
	case c.Const && c.Val != 0:
		return foldArg(1)
	case c.Const:
		return foldArg(2)
	case same:
		return foldArg(1)
	case bits == 1 && t.Const && f.Const && t.Val == 1 && f.Val == 0:
		return foldArg(0)
	case bits == 1 && t.Const && f.Const && t.Val == 0 && f.Val == 1:
		return Fold{Kind: FoldNot}
	}
	return Fold{}
}

// FoldCast folds the cast op of x from fromBits to toBits: a constant,
// or a cast to the width x already has.
func FoldCast(op Op, fromBits, toBits int, x Operand) Fold {
	switch {
	case x.Const:
		return foldConst(EvalCast(op, fromBits, toBits, x.Val))
	case fromBits == toBits:
		return foldArg(0)
	}
	return Fold{}
}

// FoldCastChain folds "outer (inner x)" to toBits, where inner casts x
// from srcBits. Every cast changes the width: an extension widens, a
// trunc narrows.
func FoldCastChain(outer, inner Op, srcBits, toBits int) Fold {
	switch {
	case inner != OpZExt && inner != OpSExt: // only extensions collapse
	case outer == OpTrunc && srcBits == toBits: // back to x's width
		return foldArg(0)
	case outer == OpTrunc && srcBits > toBits:
		return foldOp(OpTrunc)
	case outer == OpTrunc: // still an extension overall
		return foldOp(inner)
	case outer == inner: // zext∘zext, sext∘sext
		return foldOp(outer)
	case outer == OpSExt: // sext∘zext: the zext cleared the sign bit
		return foldOp(OpZExt)
	}
	return Fold{}
}
