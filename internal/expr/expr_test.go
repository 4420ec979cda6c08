package expr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"overify/internal/ir"
)

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	v := &Var{Name: "x", Bits: 8}
	x1 := b.Var(v)
	x2 := b.Var(v)
	if x1 != x2 {
		t.Error("same var interned twice")
	}
	a := b.Bin(ir.OpAdd, b.Cast(ir.OpZExt, x1, 32), b.Const(32, 5))
	c := b.Bin(ir.OpAdd, b.Cast(ir.OpZExt, x2, 32), b.Const(32, 5))
	if a != c {
		t.Error("structurally equal expressions must be pointer-equal")
	}
}

func TestBuilderFolding(t *testing.T) {
	b := NewBuilder()
	if v, ok := b.Bin(ir.OpAdd, b.Const(32, 2), b.Const(32, 3)).IsConst(); !ok || v != 5 {
		t.Error("2+3 must fold")
	}
	v := b.Var(&Var{Name: "x", Bits: 8})
	x := b.Cast(ir.OpZExt, v, 32)
	if b.Bin(ir.OpAdd, x, b.Const(32, 0)) != x {
		t.Error("x+0 must simplify to x")
	}
	if got, ok := b.Bin(ir.OpMul, x, b.Const(32, 0)).IsConst(); !ok || got != 0 {
		t.Error("x*0 must fold to 0")
	}
	if b.Bin(ir.OpXor, x, x).Kind != KConst {
		t.Error("x^x must fold to 0")
	}
	// Double negation of a boolean.
	c := b.Cmp(ir.OpEq, x, b.Const(32, 7))
	if b.Not(b.Not(c)) != c {
		t.Error("!!c must be c")
	}
	// Select with boolean arms.
	if b.Select(c, b.True(), b.False()) != c {
		t.Error("ite(c,1,0) must be c")
	}
	// Comparison narrowing through zext.
	n := b.Cmp(ir.OpEq, x, b.Const(32, 300))
	if !n.IsFalse() {
		t.Errorf("zext8 == 300 must be false, got %s", n)
	}
}

func TestCastChains(t *testing.T) {
	b := NewBuilder()
	v := b.Var(&Var{Name: "x", Bits: 8})
	z32 := b.Cast(ir.OpZExt, v, 32)
	back := b.Cast(ir.OpTrunc, z32, 8)
	if back != v {
		t.Error("trunc(zext(x)) to original width must be x")
	}
	z64 := b.Cast(ir.OpZExt, z32, 64)
	if z64.Kind != KCast || z64.Args[0] != v {
		t.Error("zext(zext(x)) must collapse to one zext from the source")
	}
}

// What randomExpr draws: operators, widths and edge constants.
var (
	binOps  = []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr}
	cmpOps  = []ir.Op{ir.OpEq, ir.OpNe, ir.OpULt, ir.OpULe, ir.OpUGt, ir.OpUGe, ir.OpSLt, ir.OpSLe, ir.OpSGt, ir.OpSGe}
	widths  = []int{1, 8, 32}
	edgeVal = []uint64{0, 1, ^uint64(0), 1 << 7, 1 << 31}
)

// randomExpr builds a random bits-wide term over the 8-bit vars and
// returns it with the value the tree has as drawn, before any builder
// rewrite: each node evaluated by ir.EvalBin/EvalCmp/EvalCast under m,
// a trap reading 0 as in Eval. Operands repeat, constants favour 0, 1,
// all-ones and sign bits, and select arms and a compare's right side
// are often leaves, so the builder's rules fire.
func randomExpr(r *rand.Rand, b *Builder, vars []*Var, m Model, bits, depth int) (*Expr, uint64) {
	if depth <= 0 || r.Intn(4) == 0 {
		if r.Intn(2) == 0 {
			v := vars[r.Intn(len(vars))]
			return castTo(r, b, b.Var(v), m.Value(v), bits)
		}
		c := uint64(r.Intn(512))
		if r.Intn(2) == 0 {
			c = edgeVal[r.Intn(len(edgeVal))]
		}
		c = ir.Mask(bits, c)
		return b.Const(bits, c), c
	}
	switch r.Intn(6) {
	case 0: // a cast from another width
		w := widths[r.Intn(len(widths))]
		x, xv := randomExpr(r, b, vars, m, w, depth-1)
		return castTo(r, b, x, xv, bits)
	case 1: // a compare, widened when bits > 1
		w := widths[r.Intn(len(widths))]
		x, xv := randomExpr(r, b, vars, m, w, depth-1)
		y, yv := x, xv
		if r.Intn(4) != 0 {
			y, yv = randomExpr(r, b, vars, m, w, leafOr(r, depth-1))
		}
		op := cmpOps[r.Intn(len(cmpOps))]
		c, cv := b.Cmp(op, x, y), uint64(0)
		if ir.EvalCmp(op, w, xv, yv) {
			cv = 1
		}
		return castTo(r, b, c, cv, bits)
	case 2, 3: // a select
		c, cv := randomExpr(r, b, vars, m, 1, depth-1)
		x, xv := randomExpr(r, b, vars, m, bits, leafOr(r, depth-1))
		y, yv := randomExpr(r, b, vars, m, bits, leafOr(r, depth-1))
		if cv != 0 {
			return b.Select(c, x, y), xv
		}
		return b.Select(c, x, y), yv
	default:
		x, xv := randomExpr(r, b, vars, m, bits, depth-1)
		y, yv := x, xv
		if r.Intn(4) != 0 {
			y, yv = randomExpr(r, b, vars, m, bits, depth-1)
		}
		op := binOps[r.Intn(len(binOps))]
		v, _ := ir.EvalBin(op, bits, xv, yv)
		return b.Bin(op, x, y), v
	}
}

// leafOr is depth, or half the time 0: a leaf.
func leafOr(r *rand.Rand, depth int) int {
	if r.Intn(2) == 0 {
		return 0
	}
	return depth
}

// castTo casts x, of value xv, to bits: a random extension when it
// widens, a trunc when it narrows.
func castTo(r *rand.Rand, b *Builder, x *Expr, xv uint64, bits int) (*Expr, uint64) {
	op := ir.OpTrunc
	switch {
	case x.Bits == bits:
		return x, xv
	case x.Bits < bits && r.Intn(2) == 0:
		op = ir.OpZExt
	case x.Bits < bits:
		op = ir.OpSExt
	}
	return b.Cast(op, x, bits), ir.EvalCast(op, x.Bits, bits, xv)
}

// TestSimplifierSoundness: whatever the builder's on-the-fly
// simplifications do, the built term evaluates to the value of the
// tree as drawn, node by node under ir.Eval*; and partial evaluation
// with a full assignment agrees with Eval.
func TestSimplifierSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	vars := []*Var{
		{Name: "a", Bits: 8}, {Name: "b", Bits: 8}, {Name: "c", Bits: 8},
	}
	for trial := 0; trial < 10000; trial++ {
		b := NewBuilder()
		asn := map[*Var]uint64{}
		for _, v := range vars {
			asn[v] = uint64(r.Intn(256))
			if r.Intn(4) == 0 {
				asn[v] = edgeVal[r.Intn(len(edgeVal))] & 0xff
			}
		}
		m := modelOf(asn)
		e, want := randomExpr(r, b, vars, m, widths[r.Intn(len(widths))], 4)
		got := Eval(e, m)
		if got != want {
			t.Fatalf("trial %d: the built term evaluates to %d, the tree as drawn to %d: %s", trial, got, want, e)
		}
		res := NewPartialEvaluator(asn).Eval(e)
		if !res.Known || res.Val != got {
			t.Fatalf("trial %d: Eval=%d PartialEval=%+v for %s", trial, got, res, e)
		}
	}
}

// TestBuilderFoldAllocatesNothing: Bin, Cmp, Cast and Select on
// operands the shared identity table folds allocate nothing, whether
// the fold returns an operand, a constant or a term already interned.
func TestBuilderFoldAllocatesNothing(t *testing.T) {
	b := NewBuilder()
	x := b.Cast(ir.OpZExt, b.Var(&Var{Name: "x", Bits: 8}), 32)
	c := b.Cmp(ir.OpULt, x, b.Const(32, 7))
	zero, one, ones := b.Const(32, 0), b.Const(32, 1), b.Const(32, 0xffffffff)
	x8 := b.Var(&Var{Name: "y", Bits: 8})
	wide := b.Cast(ir.OpZExt, x8, 16)
	folds := []func() *Expr{
		func() *Expr { return b.Bin(ir.OpAdd, x, zero) },
		func() *Expr { return b.Bin(ir.OpAdd, zero, x) },
		func() *Expr { return b.Bin(ir.OpMul, x, one) },
		func() *Expr { return b.Bin(ir.OpMul, x, zero) },
		func() *Expr { return b.Bin(ir.OpSub, x, x) },
		func() *Expr { return b.Bin(ir.OpAnd, x, ones) },
		func() *Expr { return b.Bin(ir.OpOr, x, ones) },
		func() *Expr { return b.Bin(ir.OpShl, zero, x) },
		func() *Expr { return b.Bin(ir.OpAdd, one, one) },
		func() *Expr { return b.Cmp(ir.OpSLe, x, x) },
		func() *Expr { return b.Cmp(ir.OpULt, x, zero) },
		func() *Expr { return b.Cmp(ir.OpULe, x, zero) },
		func() *Expr { return b.Cmp(ir.OpEq, c, b.True()) },
		func() *Expr { return b.Cmp(ir.OpEq, c, b.False()) },
		func() *Expr { return b.Cast(ir.OpZExt, one, 64) },
		func() *Expr { return b.Cast(ir.OpTrunc, x, 32) },
		func() *Expr { return b.Cast(ir.OpTrunc, x, 8) },
		func() *Expr { return b.Cast(ir.OpZExt, wide, 32) },
		func() *Expr { return b.Select(b.True(), x, one) },
		func() *Expr { return b.Select(c, x, x) },
		func() *Expr { return b.Select(c, b.True(), b.False()) },
		func() *Expr { return b.Select(c, b.False(), b.True()) },
	}
	for i, fold := range folds {
		want := fold() // interns what a fold builds the first time
		if allocs := testing.AllocsPerRun(10, func() {
			if fold() != want {
				t.Fatalf("fold %d: a second build is another node", i)
			}
		}); allocs != 0 {
			t.Errorf("fold %d (%s): %.0f allocations", i, want, allocs)
		}
	}
}

// TestPartialEvalConservative: with a partial assignment, a Known result
// must match the full evaluation for every completion of the assignment.
func TestPartialEvalConservative(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	vars := []*Var{
		{Name: "a", Bits: 8}, {Name: "b", Bits: 8},
	}
	for trial := 0; trial < 500; trial++ {
		b := NewBuilder()
		e, _ := randomExpr(r, b, vars, nil, 32, 3)
		partial := map[*Var]uint64{vars[0]: uint64(r.Intn(256))}
		pe := NewPartialEvaluator(partial)
		res := pe.Eval(e)
		if !res.Known {
			continue
		}
		// Try several completions; all must agree with the partial value.
		for k := 0; k < 16; k++ {
			full := Model{{Var: vars[0], Val: partial[vars[0]]}, {Var: vars[1], Val: uint64(r.Intn(256))}}
			if got := Eval(e, full); got != res.Val {
				t.Fatalf("trial %d: partial said %d but completion gives %d for %s",
					trial, res.Val, got, e)
			}
		}
	}
}

func TestReadNode(t *testing.T) {
	b := NewBuilder()
	table := []uint64{10, 20, 30, 40}
	v := &Var{Name: "i", Bits: 8}
	idx := b.Cast(ir.OpZExt, b.Var(v), 64)
	e := b.Read(table, 8, idx)
	if e.Kind != KRead {
		t.Fatalf("kind = %v", e.Kind)
	}
	if got := Eval(e, Model{{Var: v, Val: 2}}); got != 30 {
		t.Errorf("read[2] = %d", got)
	}
	// Constant index folds at build time.
	c := b.Read(table, 8, b.Const(64, 1))
	if got, ok := c.IsConst(); !ok || got != 20 {
		t.Errorf("read const idx = %v %v", got, ok)
	}
}

func TestVarsOf(t *testing.T) {
	b := NewBuilder()
	va := &Var{Name: "a", Bits: 8}
	vb := &Var{Name: "b", Bits: 8}
	e := b.Bin(ir.OpAdd,
		b.Cast(ir.OpZExt, b.Var(va), 32),
		b.Cast(ir.OpZExt, b.Var(vb), 32))
	vars := VarsOf(e)
	if len(vars) != 2 {
		t.Errorf("got %d vars", len(vars))
	}
}

// TestEvalMatchesIRSemantics cross-checks expr evaluation against the
// shared ir.EvalBin on random values (they use the same code, so this
// is a regression guard on the wiring, not the math).
func TestEvalMatchesIRSemantics(t *testing.T) {
	prop := func(a, b uint64) bool {
		bld := NewBuilder()
		x := bld.Const(32, a)
		y := bld.Const(32, b)
		for _, op := range []ir.Op{ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpLShr} {
			e := bld.Bin(op, x, y)
			want, _ := ir.EvalBin(op, 32, a, b)
			if got, ok := e.IsConst(); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestInternKeysDistinguish: interning is structural identity, no more
// and no less, in both builder modes. Terms that differ only in kind,
// operator, width, operand order (where order matters), constant value
// or table contents are distinct nodes; building any of them again
// returns the same pointer.
func TestInternKeysDistinguish(t *testing.T) {
	table := func(cells ...uint64) []uint64 { return cells }
	for _, mode := range []struct {
		name string
		mk   func() *Builder
	}{{"plain", NewBuilder}, {"concurrent", NewConcurrentBuilder}} {
		t.Run(mode.name, func(t *testing.T) {
			b := mode.mk()
			vx, vy := &Var{Name: "x", Bits: 8}, &Var{Name: "y", Bits: 8, Idx: 1}
			x, y := b.Var(vx), b.Var(vy)
			c := b.Cmp(ir.OpULt, x, y)
			idx := b.Cast(ir.OpZExt, x, 64)
			terms := []struct {
				name  string
				build func() *Expr
			}{
				{"var x", func() *Expr { return b.Var(vx) }},
				{"var y", func() *Expr { return b.Var(vy) }},
				{"const 5:i8", func() *Expr { return b.Const(8, 5) }},
				{"const 6:i8 (value)", func() *Expr { return b.Const(8, 6) }},
				{"const 5:i16 (width)", func() *Expr { return b.Const(16, 5) }},
				// A constant whose value is an operand's id, at a cast's width.
				{"const id(x):i16 (kind)", func() *Expr { return b.Const(16, uint64(x.ID())) }},
				{"x - y", func() *Expr { return b.Bin(ir.OpSub, x, y) }},
				{"y - x (operand order)", func() *Expr { return b.Bin(ir.OpSub, y, x) }},
				{"x udiv y (op)", func() *Expr { return b.Bin(ir.OpUDiv, x, y) }},
				{"bin ult x y (kind)", func() *Expr { return b.Bin(ir.OpULt, x, y) }},
				{"x ult y", func() *Expr { return b.Cmp(ir.OpULt, x, y) }},
				{"y ult x (operand order)", func() *Expr { return b.Cmp(ir.OpULt, y, x) }},
				{"x slt y (op)", func() *Expr { return b.Cmp(ir.OpSLt, x, y) }},
				{"zext x 16", func() *Expr { return b.Cast(ir.OpZExt, x, 16) }},
				{"sext x 16 (op)", func() *Expr { return b.Cast(ir.OpSExt, x, 16) }},
				{"zext x 32 (width)", func() *Expr { return b.Cast(ir.OpZExt, x, 32) }},
				{"ite c x y", func() *Expr { return b.Select(c, x, y) }},
				{"ite c y x (operand order)", func() *Expr { return b.Select(c, y, x) }},
				{"read [1 2 3]", func() *Expr { return b.Read(table(1, 2, 3), 8, idx) }},
				{"read [1 2 4] (table content)", func() *Expr { return b.Read(table(1, 2, 4), 8, idx) }},
				{"read [1 2] (table length)", func() *Expr { return b.Read(table(1, 2), 8, idx) }},
				{"read [1 2 3 0] (table length)", func() *Expr { return b.Read(table(1, 2, 3, 0), 8, idx) }},
				{"read [1 2 3]:i16 (width)", func() *Expr { return b.Read(table(1, 2, 3), 16, idx) }},
				{"read [0x0201 3]:i16 (cell boundaries)", func() *Expr { return b.Read(table(0x0201, 3), 16, idx) }},
				{"read [1 2 3] at y (operand)", func() *Expr { return b.Read(table(1, 2, 3), 8, b.Cast(ir.OpZExt, y, 64)) }},
			}
			first := make([]*Expr, len(terms))
			for i, tm := range terms {
				first[i] = tm.build()
				for j := 0; j < i; j++ {
					if first[j] == first[i] {
						t.Errorf("%q and %q are one node", terms[j].name, tm.name)
					}
				}
			}
			built := b.NodesBuilt()
			for i, tm := range terms {
				if tm.build() != first[i] {
					t.Errorf("%q built twice is two nodes", tm.name)
				}
			}
			if b.NodesBuilt() != built {
				t.Errorf("rebuilding equal terms interned %d new nodes", b.NodesBuilt()-built)
			}
			// Commutative operands are canonicalized before keying.
			if b.Bin(ir.OpAdd, x, y) != b.Bin(ir.OpAdd, y, x) {
				t.Error("x+y and y+x are two nodes")
			}
		})
	}
}

// TestSmallConstTable: a constant the small table answers is the node
// interning built for it, and the builder's counters read as if every
// call had gone through the interning map — one miss per distinct
// constant, one hit per repeat — whether or not the table covers the
// width and the value.
func TestSmallConstTable(t *testing.T) {
	for _, mode := range []struct {
		name string
		mk   func() *Builder
	}{{"plain", NewBuilder}, {"concurrent", NewConcurrentBuilder}} {
		t.Run(mode.name, func(t *testing.T) {
			b := mode.mk()
			type key struct {
				bits int
				v    uint64
			}
			first := make(map[key]*Expr)
			calls := 0
			for round := 0; round < 3; round++ {
				for _, bits := range []int{1, 8, 16, 32, 64} {
					for _, v := range []uint64{0, 1, 2, 255, 256, 1 << 40} {
						e := b.Const(bits, v)
						calls++
						k := key{bits, ir.Mask(bits, v)}
						if e.Bits != bits || e.Val != k.v {
							t.Fatalf("Const(%d, %d) = %d:i%d", bits, v, e.Val, e.Bits)
						}
						if prev, ok := first[k]; ok && prev != e {
							t.Fatalf("Const(%d, %d) returned a second node", bits, v)
						}
						first[k] = e
					}
				}
			}
			if got, want := b.NodesBuilt(), int64(len(first)); got != want {
				t.Errorf("nodes built %d, want one per distinct constant, %d", got, want)
			}
			if got, want := b.CacheHits(), int64(calls-len(first)); got != want {
				t.Errorf("cache hits %d, want one per repeat, %d", got, want)
			}
		})
	}
}

// modelOf is the model binding what a partial evaluator's assignment
// binds.
func modelOf(asn map[*Var]uint64) Model {
	m := make(Model, 0, len(asn))
	for v, val := range asn {
		m = append(m, Binding{Var: v, Val: val})
	}
	return m
}
