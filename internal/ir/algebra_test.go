package ir

import (
	"math/rand"
	"testing"
)

// values is the domain a symbolic operand of the width ranges over:
// every value up to i8, and above it 0, 1, 2, all-ones, all-ones - 1,
// the sign bit, the largest positive value and seeded random values.
func values(bits int) []uint64 {
	if bits <= 8 {
		vs := make([]uint64, 1<<bits)
		for i := range vs {
			vs[i] = uint64(i)
		}
		return vs
	}
	ones, sign := Mask(bits, ^uint64(0)), uint64(1)<<(bits-1)
	vs := []uint64{0, 1, 2, ones, ones - 1, sign, sign - 1}
	r := rand.New(rand.NewSource(int64(bits)))
	for i := 0; i < 25; i++ {
		vs = append(vs, Mask(bits, r.Uint64()))
	}
	return vs
}

var (
	sym   = Operand{}
	bools = values(1)
)

func konst(v uint64) Operand { return Operand{Val: v, Const: true} }

// shapes calls fn with every way to give the operands: each one either
// symbolic or a constant from its domain.
func shapes(doms [][]uint64, fn func(args []Operand)) {
	args := make([]Operand, len(doms))
	var rec func(i int)
	rec = func(i int) {
		if i == len(doms) {
			fn(args)
			return
		}
		args[i] = sym
		rec(i + 1)
		for _, v := range doms[i] {
			args[i] = konst(v)
			rec(i + 1)
		}
	}
	rec(0)
}

// assignments calls fn with every concrete value of args: a constant
// is its value and a symbolic operand ranges over its domain; with
// same, the last operand is the one before it.
func assignments(args []Operand, doms [][]uint64, same bool, fn func(v []uint64)) {
	v := make([]uint64, len(args))
	var rec func(i int)
	rec = func(i int) {
		switch {
		case i == len(args):
			fn(v)
			return
		case args[i].Const:
			v[i] = args[i].Val
			rec(i + 1)
		case same && i == len(args)-1:
			v[i] = v[i-1]
			rec(i + 1)
		default:
			for _, x := range doms[i] {
				v[i] = x
				rec(i + 1)
			}
		}
	}
	rec(0)
}

// A claim is an operation the table is asked about: its operands
// (symbolic ones range over doms; with same, the last is the one
// before it), their widths and the result's, its semantics (false
// where it traps) and how to evaluate another operation on the same
// operands.
type claim struct {
	name     string
	args     []Operand
	doms     [][]uint64
	same     bool
	argBits  []int
	bits     int
	sem      func(v []uint64) (uint64, bool)
	sameArgs func(o Op, v []uint64) uint64
}

// prove checks the table's answer f for c: an operand it names has the
// result's width, and on every assignment f gives what the semantics
// computes, and never where the operation traps.
func (c claim) prove(t *testing.T, f Fold) {
	t.Helper()
	if (f.Kind == FoldArg || f.Kind == FoldNot) && c.argBits[f.Arg] != c.bits {
		t.Errorf("%s (args %+v): fold %+v names an i%d operand for an i%d result", c.name, c.args, f, c.argBits[f.Arg], c.bits)
	}
	if f.Kind == NoFold {
		return
	}
	bad := 0
	assignments(c.args, c.doms, c.same, func(v []uint64) {
		want, ok := c.sem(v)
		var got uint64
		switch f.Kind {
		case FoldArg:
			got = v[f.Arg]
		case FoldConst:
			got = f.Val
		case FoldNot:
			got = v[f.Arg] ^ 1
		case FoldOp:
			got = c.sameArgs(f.Op, v)
		}
		if (!ok || got != want) && bad < 3 {
			bad++
			t.Errorf("%s on %v (args %+v, same=%v): fold %+v gives %d, semantics %d (defined %v)", c.name, v, c.args, c.same, f, got, want, ok)
		}
	})
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// TestAlgebraBin: at i1 and i8 every binary operation, over every
// constant against every value of a symbolic operand (a lone constant
// on either side for a non-commutative op), two constants, and x op x,
// folds to what EvalBin computes, and never where EvalBin traps; i32
// and i64 on sampled values.
func TestAlgebraBin(t *testing.T) {
	for _, bits := range []int{1, 8, 32, 64} {
		vs := values(bits)
		doms := [][]uint64{vs, vs}
		for op := OpAdd; op <= OpAShr; op++ {
			c := claim{name: op.String(), doms: doms, argBits: []int{bits, bits}, bits: bits,
				sem:      func(v []uint64) (uint64, bool) { return EvalBin(op, bits, v[0], v[1]) },
				sameArgs: func(o Op, v []uint64) uint64 { r, _ := EvalBin(o, bits, v[0], v[1]); return r },
			}
			shapes(doms, func(args []Operand) {
				if args[0].Const && !args[1].Const && op.IsCommutative() {
					return // the callers move a lone constant right
				}
				c.args = args
				c.prove(t, FoldBin(op, bits, args[0], args[1], false))
			})
			c.name, c.args, c.same = op.String()+" x, x", []Operand{sym, sym}, true
			c.prove(t, FoldBin(op, bits, sym, sym, true))
		}
	}
}

// TestAlgebraCmp: the same enumeration for every comparison against
// EvalCmp.
func TestAlgebraCmp(t *testing.T) {
	for _, bits := range []int{1, 8, 32, 64} {
		vs := values(bits)
		doms := [][]uint64{vs, vs}
		for op := OpEq; op <= OpSGe; op++ {
			c := claim{name: op.String(), doms: doms, argBits: []int{bits, bits}, bits: 1,
				sem:      func(v []uint64) (uint64, bool) { return b2u(EvalCmp(op, bits, v[0], v[1])), true },
				sameArgs: func(o Op, v []uint64) uint64 { return b2u(EvalCmp(o, bits, v[0], v[1])) },
			}
			shapes(doms, func(args []Operand) {
				c.args = args
				c.prove(t, FoldCmp(op, bits, args[0], args[1], false))
			})
			c.name, c.args, c.same = op.String()+" x, x", []Operand{sym, sym}, true
			c.prove(t, FoldCmp(op, bits, sym, sym, true))
		}
	}
}

// TestAlgebraSelect: every select of i1 and i8 arms, over a symbolic
// or constant condition and arms, and with one symbolic value in both
// arms, folds to the arm the condition picks.
func TestAlgebraSelect(t *testing.T) {
	sem := func(v []uint64) (uint64, bool) {
		if v[0] != 0 {
			return v[1], true
		}
		return v[2], true
	}
	for _, bits := range []int{1, 8, 32, 64} {
		vs := values(bits)
		c := claim{name: "select", doms: [][]uint64{bools, vs, vs}, argBits: []int{1, bits, bits}, bits: bits, sem: sem}
		shapes(c.doms, func(args []Operand) {
			c.args = args
			c.prove(t, FoldSelect(bits, args[0], args[1], args[2], false))
		})
		c.name, c.same = "select c, x, x", true
		for _, cond := range []Operand{sym, konst(0), konst(1)} {
			c.args = []Operand{cond, sym, sym}
			c.prove(t, FoldSelect(bits, cond, sym, sym, true))
		}
	}
}

// castOK reports whether op casts from to to: an extension widens, a
// trunc narrows.
func castOK(op Op, from, to int) bool {
	if op == OpTrunc {
		return from > to
	}
	return from < to
}

var castOps = []Op{OpZExt, OpSExt, OpTrunc}

// TestAlgebraCast: every cast between the widths {1, 8, 16, 32, 64}
// folds a constant to EvalCast's value and a cast to the width it has
// to its operand; every chain of two casts from an i1 or i8 source
// through those widths collapses to what the two EvalCasts compute.
func TestAlgebraCast(t *testing.T) {
	widths := []int{1, 8, 16, 32, 64}
	for _, op := range castOps {
		for _, from := range widths {
			for _, to := range widths {
				if !castOK(op, from, to) && from != to {
					continue
				}
				c := claim{name: op.String(), doms: [][]uint64{values(from)}, argBits: []int{from}, bits: to,
					sem: func(v []uint64) (uint64, bool) { return EvalCast(op, from, to, v[0]), true },
				}
				shapes(c.doms, func(args []Operand) {
					c.args = args
					c.prove(t, FoldCast(op, from, to, args[0]))
				})
			}
		}
	}
	for _, src := range []int{1, 8} {
		doms := [][]uint64{values(src)}
		for _, inner := range castOps {
			for _, mid := range widths {
				for _, outer := range castOps {
					for _, to := range widths {
						if !castOK(inner, src, mid) || !castOK(outer, mid, to) {
							continue
						}
						c := claim{name: outer.String() + "∘" + inner.String(), args: []Operand{sym}, doms: doms, argBits: []int{src}, bits: to,
							sem: func(v []uint64) (uint64, bool) {
								return EvalCast(outer, mid, to, EvalCast(inner, src, mid, v[0])), true
							},
							sameArgs: func(o Op, v []uint64) uint64 { return EvalCast(o, src, to, v[0]) },
						}
						f := FoldCastChain(outer, inner, src, to)
						if f.Kind == FoldOp && !castOK(f.Op, src, to) {
							t.Errorf("%s(%s i%d to i%d) to i%d folds to %s i%d to i%d, not a cast", outer, inner, src, mid, to, f.Op, src, to)
						}
						c.prove(t, f)
					}
				}
			}
		}
	}
}

// TestAlgebraRulesFire: each identity the table holds answers where it
// should; the tests above prove the answers, this one that they are
// given.
func TestAlgebraRulesFire(t *testing.T) {
	k0, k1, ones := konst(0), konst(1), konst(0xff)
	for _, tc := range []struct {
		name string
		got  Fold
		want FoldKind
	}{
		{"3+4", FoldBin(OpAdd, 8, konst(3), konst(4), false), FoldConst},
		{"udiv 3, 0 keeps its trap", FoldBin(OpUDiv, 8, konst(3), k0, false), NoFold},
		{"x+0", FoldBin(OpAdd, 8, sym, k0, false), FoldArg},
		{"x-0", FoldBin(OpSub, 8, sym, k0, false), FoldArg},
		{"x-x", FoldBin(OpSub, 8, sym, sym, true), FoldConst},
		{"x*0", FoldBin(OpMul, 8, sym, k0, false), FoldConst},
		{"x*1", FoldBin(OpMul, 8, sym, k1, false), FoldArg},
		{"x udiv 1", FoldBin(OpUDiv, 8, sym, k1, false), FoldArg},
		{"x sdiv 1", FoldBin(OpSDiv, 8, sym, k1, false), FoldArg},
		{"x urem 1", FoldBin(OpURem, 8, sym, k1, false), FoldConst},
		{"x srem 1", FoldBin(OpSRem, 8, sym, k1, false), FoldConst},
		{"x&0", FoldBin(OpAnd, 8, sym, k0, false), FoldConst},
		{"x&ones", FoldBin(OpAnd, 8, sym, ones, false), FoldArg},
		{"x&x", FoldBin(OpAnd, 8, sym, sym, true), FoldArg},
		{"x|0", FoldBin(OpOr, 8, sym, k0, false), FoldArg},
		{"x|ones", FoldBin(OpOr, 8, sym, ones, false), FoldConst},
		{"x|x", FoldBin(OpOr, 8, sym, sym, true), FoldArg},
		{"x^0", FoldBin(OpXor, 8, sym, k0, false), FoldArg},
		{"x^x", FoldBin(OpXor, 8, sym, sym, true), FoldConst},
		{"x<<0", FoldBin(OpShl, 8, sym, k0, false), FoldArg},
		{"x lshr 0", FoldBin(OpLShr, 8, sym, k0, false), FoldArg},
		{"x ashr 0", FoldBin(OpAShr, 8, sym, k0, false), FoldArg},
		{"0<<x", FoldBin(OpShl, 8, k0, sym, false), FoldConst},
		{"0 lshr x", FoldBin(OpLShr, 8, k0, sym, false), FoldConst},
		{"0 ashr x", FoldBin(OpAShr, 8, k0, sym, false), FoldConst},
		{"3 ult 4", FoldCmp(OpULt, 8, konst(3), konst(4), false), FoldConst},
		{"x sle x", FoldCmp(OpSLe, 8, sym, sym, true), FoldConst},
		{"x:i1 ne 0", FoldCmp(OpNe, 1, sym, k0, false), FoldArg},
		{"x:i1 eq 1", FoldCmp(OpEq, 1, sym, k1, false), FoldArg},
		{"x:i1 eq 0", FoldCmp(OpEq, 1, sym, k0, false), FoldNot},
		{"x:i1 ne 1", FoldCmp(OpNe, 1, sym, k1, false), FoldNot},
		{"x ult 0", FoldCmp(OpULt, 8, sym, k0, false), FoldConst},
		{"x uge 0", FoldCmp(OpUGe, 8, sym, k0, false), FoldConst},
		{"x ule 0", FoldCmp(OpULe, 8, sym, k0, false), FoldOp},
		{"x ugt 0", FoldCmp(OpUGt, 8, sym, k0, false), FoldOp},
		{"select 1, x, y", FoldSelect(8, k1, sym, sym, false), FoldArg},
		{"select 0, x, y", FoldSelect(8, k0, sym, sym, false), FoldArg},
		{"select c, x, x", FoldSelect(8, sym, sym, sym, true), FoldArg},
		{"select c, 1, 0", FoldSelect(1, sym, k1, k0, false), FoldArg},
		{"select c, 0, 1", FoldSelect(1, sym, k0, k1, false), FoldNot},
		{"zext 3", FoldCast(OpZExt, 8, 32, konst(3)), FoldConst},
		{"trunc(zext x) back", FoldCastChain(OpTrunc, OpZExt, 8, 8), FoldArg},
		{"trunc(sext x) below", FoldCastChain(OpTrunc, OpSExt, 16, 8), FoldOp},
		{"trunc(zext x) above", FoldCastChain(OpTrunc, OpZExt, 8, 16), FoldOp},
		{"zext(zext x)", FoldCastChain(OpZExt, OpZExt, 8, 64), FoldOp},
		{"sext(sext x)", FoldCastChain(OpSExt, OpSExt, 8, 64), FoldOp},
		{"sext(zext x)", FoldCastChain(OpSExt, OpZExt, 8, 64), FoldOp},
		{"zext(sext x) stays", FoldCastChain(OpZExt, OpSExt, 8, 64), NoFold},
	} {
		if tc.got.Kind != tc.want {
			t.Errorf("%s: fold %+v, want kind %d", tc.name, tc.got, tc.want)
		}
	}
}
