package expr

import (
	"math/rand"
	"sort"
	"testing"

	"overify/internal/ir"
)

// varsOfByWalk is the reference implementation: a fresh DAG walk.
func varsOfByWalk(es ...*Expr) []*Var {
	seen := make(map[*Var]bool)
	visited := make(map[*Expr]bool)
	for _, e := range es {
		e.Vars(seen, visited)
	}
	out := make([]*Var, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	return out
}

// TestVarSetMatchesWalk: for random builder-built DAGs, the interned
// set must contain exactly the variables a walk finds.
func TestVarSetMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	vars := []*Var{
		{Name: "a", Bits: 8, Idx: 0}, {Name: "b", Bits: 8, Idx: 1},
		{Name: "c", Bits: 8, Idx: 2}, {Name: "d", Bits: 8, Idx: 3},
	}
	for trial := 0; trial < 500; trial++ {
		b := NewBuilder()
		e, _ := randomExpr(r, b, vars, nil, 32, 5)
		got := e.VarSet().Vars()
		want := varsOfByWalk(e)
		if len(got) != len(want) {
			t.Fatalf("trial %d: set has %d vars, walk found %d (%s)", trial, len(got), len(want), e)
		}
		wantSet := make(map[*Var]bool, len(want))
		for _, v := range want {
			wantSet[v] = true
		}
		for _, v := range got {
			if !wantSet[v] {
				t.Fatalf("trial %d: set contains %s, walk did not find it", trial, v.Name)
			}
		}
		// The list must be ordinal-sorted and duplicate-free.
		if !sort.SliceIsSorted(e.VarSet().ords, func(i, j int) bool {
			return e.VarSet().ords[i] < e.VarSet().ords[j]
		}) {
			t.Fatalf("trial %d: ordinal list not sorted", trial)
		}
	}
}

// TestVarSetSharing: constructions that add no variables must reuse the
// child's set pointer — no allocation on the common path.
func TestVarSetSharing(t *testing.T) {
	b := NewBuilder()
	v := b.Var(&Var{Name: "x", Bits: 8, Idx: 0})
	x := b.Cast(ir.OpZExt, v, 32)
	if x.VarSet() != v.VarSet() {
		t.Error("cast must share the operand's var set")
	}
	sum := b.Bin(ir.OpAdd, x, b.Const(32, 5))
	if sum.VarSet() != x.VarSet() {
		t.Error("binop with a constant must share the operand's var set")
	}
	cmp := b.Cmp(ir.OpULt, sum, b.Const(32, 100))
	if cmp.VarSet() != x.VarSet() {
		t.Error("comparison with a constant must share the operand's var set")
	}
	if n := b.Const(32, 9).VarSet().Len(); n != 0 {
		t.Errorf("constant has %d vars", n)
	}
}

// TestVarSetIntersects covers the solver's independence primitive.
func TestVarSetIntersects(t *testing.T) {
	b := NewBuilder()
	x := b.Var(&Var{Name: "x", Bits: 8, Idx: 0})
	y := b.Var(&Var{Name: "y", Bits: 8, Idx: 1})
	xy := b.Bin(ir.OpAdd, b.Cast(ir.OpZExt, x, 32), b.Cast(ir.OpZExt, y, 32))
	if x.VarSet().Intersects(y.VarSet()) {
		t.Error("{x} intersects {y}")
	}
	if !xy.VarSet().Intersects(x.VarSet()) || !xy.VarSet().Intersects(y.VarSet()) {
		t.Error("{x,y} must intersect both singletons")
	}
	if got := MergeVarSets(x.VarSet(), y.VarSet()); got.Len() != 2 {
		t.Errorf("merged set has %d vars", got.Len())
	}
	if MergeVarSets(xy.VarSet(), x.VarSet()) != xy.VarSet() {
		t.Error("merging a subset must reuse the superset pointer")
	}
}

// TestVarSetWalkCounter: builder-built expressions never walk; literal
// Exprs fall back to a counted walk.
func TestVarSetWalkCounter(t *testing.T) {
	b := NewBuilder()
	v := b.Var(&Var{Name: "x", Bits: 8, Idx: 0})
	e := b.Cmp(ir.OpEq, v, b.Const(8, 4))
	start := VarSetWalks()
	_ = e.VarSet()
	_ = VarsOf(e, v)
	if d := VarSetWalks() - start; d != 0 {
		t.Errorf("builder-built expressions walked %d times", d)
	}
	lit := &Expr{Kind: KVar, Bits: 8, V: &Var{Name: "lit", Bits: 8, Idx: 0}}
	_ = lit.VarSet()
	if d := VarSetWalks() - start; d != 1 {
		t.Errorf("literal expression walks = %d, want 1", d)
	}
}

// TestEvaluatorMatchesEval: the reusable evaluator is Eval without the
// per-call memo allocation — results must be identical, across rebinds.
func TestEvaluatorMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	vars := []*Var{
		{Name: "a", Bits: 8, Idx: 0}, {Name: "b", Bits: 8, Idx: 1},
	}
	ev := NewEvaluator()
	for trial := 0; trial < 300; trial++ {
		b := NewBuilder()
		e, _ := randomExpr(r, b, vars, nil, 32, 4)
		var asn Model
		for _, v := range vars {
			if r.Intn(3) > 0 { // sometimes missing: must read as zero
				asn = append(asn, Binding{Var: v, Val: uint64(r.Intn(256))})
			}
		}
		ev.Bind(asn)
		if got, want := ev.Eval(e), Eval(e, asn); got != want {
			t.Fatalf("trial %d: Evaluator=%d Eval=%d for %s", trial, got, want, e)
		}
		// Repeat under the same binding exercises the memo.
		if got, want := ev.Eval(e), Eval(e, asn); got != want {
			t.Fatalf("trial %d (memo): Evaluator=%d Eval=%d", trial, got, want)
		}
	}
}
