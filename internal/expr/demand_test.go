package expr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"overify/internal/ir"
)

// varNames lists the names of the variables e names, sorted.
func varNames(e *Expr) []string {
	var names []string
	for _, v := range e.VarSet().Vars() {
		names = append(names, v.Name)
	}
	slices.Sort(names)
	return names
}

// accumulator builds base32's `acc = (acc << 8) | input[i]` over the
// given bytes at 32 bits, first byte highest.
func accumulator(b *Builder, bytes []*Expr) *Expr {
	acc := b.Const(32, 0)
	for _, in := range bytes {
		acc = b.Bin(ir.OpOr, b.Bin(ir.OpShl, acc, b.Const(32, 8)), b.Cast(ir.OpZExt, in, 32))
	}
	return acc
}

// TestDemandedBitsRules: `and x, C` with a constant C rebuilds x for the
// bits of C only, so the term names only the variables those bits come
// from; a term the rules cannot change comes back as itself and builds
// no node.
func TestDemandedBitsRules(t *testing.T) {
	type rulesCase struct {
		name string
		x    func(b *Builder, in []*Expr) *Expr
		mask uint64
		want []string // the variables `and x, mask` names
		same bool     // demand returns x itself
	}
	ashrAcc := func(k uint64) func(b *Builder, in []*Expr) *Expr {
		return func(b *Builder, in []*Expr) *Expr {
			return b.Bin(ir.OpAShr, accumulator(b, in), b.Const(32, k))
		}
	}
	var cases []rulesCase
	// Byte j of the accumulator (in[3-j]) holds bits 8j..8j+7; the window
	// k..k+4 reads the bytes it overlaps, and past bit 31 the sign bit.
	for k := uint64(0); k < 28; k++ {
		var want []string
		for j := uint64(0); j < 4; j++ {
			if 8*j <= k+4 && k <= 8*j+7 {
				want = append(want, fmt.Sprint("in", 3-j))
			}
		}
		slices.Sort(want)
		cases = append(cases, rulesCase{fmt.Sprintf("base32 k=%d", k), ashrAcc(k), 31, want, false})
	}
	cases = append(cases,
		rulesCase{"sign bit", ashrAcc(28), 31, []string{"in0"}, false},
		rulesCase{"only shifted-in bits", ashrAcc(28), 0x10, []string{"in0"}, false},
		rulesCase{"lshr", func(b *Builder, in []*Expr) *Expr {
			return b.Bin(ir.OpLShr, accumulator(b, in), b.Const(32, 12))
		}, 0xf0, []string{"in1"}, false},
		rulesCase{"zext with no demanded source bit", func(b *Builder, in []*Expr) *Expr {
			return b.Cast(ir.OpZExt, in[0], 32)
		}, 0xff00, nil, false},
		rulesCase{"shl past the demanded bits", func(b *Builder, in []*Expr) *Expr {
			return b.Bin(ir.OpShl, b.Cast(ir.OpZExt, in[0], 32), b.Const(32, 8))
		}, 0xff, nil, false},
		rulesCase{"unchanged or", func(b *Builder, in []*Expr) *Expr {
			return b.Bin(ir.OpOr, b.Cast(ir.OpZExt, in[0], 32), b.Cast(ir.OpZExt, in[1], 32))
		}, 0x7f, []string{"in0", "in1"}, true},
		rulesCase{"add is not a rule", func(b *Builder, in []*Expr) *Expr {
			return b.Bin(ir.OpAdd, accumulator(b, in), b.Const(32, 1))
		}, 31, []string{"in0", "in1", "in2", "in3"}, true},
		rulesCase{"shift by a symbolic amount", func(b *Builder, in []*Expr) *Expr {
			return b.Bin(ir.OpShl, accumulator(b, in[1:]), b.Cast(ir.OpZExt, in[0], 32))
		}, 31, []string{"in0", "in1", "in2", "in3"}, true},
		rulesCase{"shift by the width", func(b *Builder, in []*Expr) *Expr {
			return b.Bin(ir.OpAShr, accumulator(b, in), b.Const(32, 32))
		}, 31, []string{"in0", "in1", "in2", "in3"}, true},
	)
	r := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			vars := make([]*Var, 4)
			in := make([]*Expr, 4)
			for i := range vars {
				vars[i] = &Var{Name: fmt.Sprint("in", i), Bits: 8, Idx: i}
				in[i] = b.Var(vars[i])
			}
			x := tc.x(b, in)
			before := b.NodesBuilt()
			d := demand(b, x, tc.mask, demandDepth)
			if tc.same && (d != x || b.NodesBuilt() != before) {
				t.Errorf("demand(%s, %#x) = %s, %d nodes built; want x itself, none built",
					x, tc.mask, d, b.NodesBuilt()-before)
			}
			e := b.Bin(ir.OpAnd, x, b.Const(32, tc.mask))
			if got := varNames(e); !slices.Equal(got, tc.want) {
				t.Errorf("%s names %v, want %v", e, got, tc.want)
			}
			if tc.want == nil && !(e.Kind == KConst && e.Val == 0) {
				t.Errorf("%s names no variable but is not the constant 0", e)
			}
			for range 200 {
				m := make(Model, len(vars))
				for i, v := range vars {
					m[i] = Binding{Var: v, Val: uint64(r.Intn(256))}
				}
				if got, want := Eval(e, m), Eval(x, m)&tc.mask; got != want {
					t.Fatalf("%s = %#x under %v, want %#x", e, got, m, want)
				}
			}
		})
	}
}

// fuzzTerms is a stack program's terms, built through the Builder in
// order, with a reference evaluation of each that does not go through
// it: refs[i] computes term i from the values of earlier terms.
type fuzzTerms struct {
	terms []*Expr
	refs  []func(val, in []uint64) uint64
}

func (p *fuzzTerms) push(e *Expr, ref func(val, in []uint64) uint64) int {
	p.terms = append(p.terms, e)
	p.refs = append(p.refs, ref)
	return len(p.terms) - 1
}

// eval returns every term's reference value under the input bytes.
func (p *fuzzTerms) eval(in []uint64) []uint64 {
	val := make([]uint64, len(p.refs))
	for i, ref := range p.refs {
		val[i] = ref(val, in)
	}
	return val
}

// cast converts term i to bits by zext (or sext, when signed) or trunc.
func (p *fuzzTerms) cast(b *Builder, i, bits int, signed bool) int {
	from := p.terms[i].Bits
	op := ir.OpZExt
	switch {
	case from == bits:
		return i
	case from > bits:
		op = ir.OpTrunc
	case signed:
		op = ir.OpSExt
	}
	return p.push(b.Cast(op, p.terms[i], bits), func(val, _ []uint64) uint64 {
		return ir.EvalCast(op, from, bits, val[i])
	})
}

var fuzzWidths = [3]int{8, 16, 32}

// buildDemandFuzzTerms interprets data as a stack program of (op, arg)
// pairs over byte variables, at widths 8, 16 and 32: variables,
// constants, zext/sext/trunc, or/xor/and/add, and shifts by constants
// up to 8 past the width. It returns the terms and the index of the
// result. A pop from a one-term stack leaves the term there, so terms
// share operands.
func buildDemandFuzzTerms(b *Builder, vars []*Var, data []byte) (*fuzzTerms, int) {
	p := &fuzzTerms{}
	stack := []int{p.push(b.Var(vars[0]), func(_, in []uint64) uint64 { return in[0] })}
	pop := func() int {
		i := stack[len(stack)-1]
		if len(stack) > 1 {
			stack = stack[:len(stack)-1]
		}
		return i
	}
	binOps := []ir.Op{ir.OpOr, ir.OpXor, ir.OpAnd, ir.OpAdd, ir.OpShl, ir.OpLShr, ir.OpAShr}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := int(data[i])%(3+len(binOps)), data[i+1]
		switch op {
		case 0:
			v := int(arg) % len(vars)
			stack = append(stack, p.push(b.Var(vars[v]), func(_, in []uint64) uint64 { return in[v] }))
		case 1:
			c := b.Const(fuzzWidths[int(arg)%3], uint64(arg)*0x01000193)
			stack = append(stack, p.push(c, func(_, _ []uint64) uint64 { return c.Val }))
		case 2:
			stack = append(stack, p.cast(b, pop(), fuzzWidths[int(arg)%3], arg&4 != 0))
		default:
			bop := binOps[op-3]
			x := pop()
			bits := p.terms[x].Bits
			var y int
			if bop == ir.OpShl || bop == ir.OpLShr || bop == ir.OpAShr {
				c := b.Const(bits, uint64(arg)%uint64(bits+8))
				y = p.push(c, func(_, _ []uint64) uint64 { return c.Val })
			} else {
				y = p.cast(b, pop(), bits, arg&1 != 0)
			}
			stack = append(stack, p.push(b.Bin(bop, p.terms[x], p.terms[y]), func(val, _ []uint64) uint64 {
				r, _ := ir.EvalBin(bop, bits, val[x], val[y])
				return r
			}))
		}
	}
	return p, stack[len(stack)-1]
}

// base32Program is the stack program of base32's `(acc >> k)` at n=3:
// acc = (in0 << 16) | (in1 << 8) | in2 at 32 bits.
func base32Program(k byte) []byte {
	const (
		pushVar = 0
		cast    = 2
		or      = 3
		shl     = 7
		ashr    = 9
	)
	return []byte{
		pushVar, 0, cast, 2, shl, 8,
		pushVar, 1, cast, 2, or, 0, shl, 8,
		pushVar, 2, cast, 2, or, 0,
		ashr, k,
	}
}

// FuzzDemandedBits: for random terms x and constants C, `and x, C` as
// the Builder builds it (demanded-bits rewrite included) evaluates to
// x & C under random models, x itself evaluates as the operations it
// was built from, and demand(x, C) names no variable x does not. When
// window is even, C is a 5-bit window like base32's `& 31`. demand is
// not idempotent in one call (Bin's re-entry finishes it), so that is
// not asserted.
func FuzzDemandedBits(f *testing.F) {
	for k := byte(0); k < 12; k++ {
		f.Add(base32Program(k), uint64(31), byte(0), int64(k))
	}
	f.Add([]byte{0, 0, 2, 5, 8, 40, 0, 1, 4, 1, 5, 0}, uint64(0xff00ff), byte(1), int64(7))
	f.Add([]byte{1, 2, 2, 1, 6, 3, 0, 2, 9, 15, 3, 1}, uint64(0x8001), byte(1), int64(9))
	f.Fuzz(func(t *testing.T, data []byte, c uint64, window byte, seed int64) {
		b := NewBuilder()
		vars := []*Var{{Name: "a", Bits: 8}, {Name: "b", Bits: 8, Idx: 1}, {Name: "c", Bits: 8, Idx: 2}}
		p, res := buildDemandFuzzTerms(b, vars, data)
		x := p.terms[res]
		if window%2 == 0 {
			c = 31 << (int(window/2) % x.Bits)
		}
		c = ir.Mask(x.Bits, c)
		e := b.Bin(ir.OpAnd, x, b.Const(x.Bits, c))
		d := demand(b, x, c, demandDepth)
		if !d.VarSet().subsetOf(x.VarSet()) {
			t.Fatalf("demand(%s, %#x) = %s names variables x does not", x, c, d)
		}
		r := rand.New(rand.NewSource(seed))
		in := make([]uint64, len(vars))
		m := make(Model, len(vars))
		ev := NewEvaluator()
		for range 64 {
			for i, v := range vars {
				in[i] = uint64(r.Intn(256))
				m[i] = Binding{Var: v, Val: in[i]}
			}
			ev.Bind(m)
			want := p.eval(in)
			for i, term := range p.terms {
				if got := ev.Eval(term); got != want[i] {
					t.Fatalf("%s = %#x under %v, want %#x", term, got, in, want[i])
				}
			}
			w := want[res]
			if got := ev.Eval(e); got != w&c {
				t.Fatalf("%s = %#x under %v, want %#x & %#x = %#x", e, got, in, w, c, w&c)
			}
			if got := ev.Eval(d) & c; got != w&c {
				t.Fatalf("demand(%s, %#x) = %s: %#x under %v, want %#x", x, c, d, got, in, w&c)
			}
		}
	})
}
