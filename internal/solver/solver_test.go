package solver

import (
	"math/rand"
	"slices"
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

func vars(n int) []*expr.Var {
	out := make([]*expr.Var, n)
	for i := range out {
		out[i] = &expr.Var{Name: string(rune('a' + i)), Bits: 8, Idx: i}
	}
	return out
}

func TestSimpleSat(t *testing.T) {
	b := expr.NewBuilder()
	v := vars(1)
	x := b.Var(v[0])
	s := New(Options{})
	// x == 42
	sat, model, err := s.Sat([]*expr.Expr{b.Cmp(ir.OpEq, x, b.Const(8, 42))})
	if err != nil || !sat {
		t.Fatalf("sat=%v err=%v", sat, err)
	}
	if model.Value(v[0]) != 42 {
		t.Errorf("model = %d, want 42", model.Value(v[0]))
	}
}

func TestSimpleUnsat(t *testing.T) {
	b := expr.NewBuilder()
	v := vars(1)
	x := b.Var(v[0])
	s := New(Options{})
	sat, _, err := s.Sat([]*expr.Expr{
		b.Cmp(ir.OpEq, x, b.Const(8, 1)),
		b.Cmp(ir.OpEq, x, b.Const(8, 2)),
	})
	if err != nil || sat {
		t.Fatalf("want unsat, got sat=%v err=%v", sat, err)
	}
}

func TestMultiVar(t *testing.T) {
	b := expr.NewBuilder()
	v := vars(2)
	x := b.Cast(ir.OpZExt, b.Var(v[0]), 32)
	y := b.Cast(ir.OpZExt, b.Var(v[1]), 32)
	s := New(Options{})
	// x + y == 300 && x < 100  =>  y in (200, 300).
	sat, model, err := s.Sat([]*expr.Expr{
		b.Cmp(ir.OpEq, b.Bin(ir.OpAdd, x, y), b.Const(32, 300)),
		b.Cmp(ir.OpULt, x, b.Const(32, 100)),
	})
	if err != nil || !sat {
		t.Fatalf("sat=%v err=%v", sat, err)
	}
	if model.Value(v[0])+model.Value(v[1]) != 300 || model.Value(v[0]) >= 100 {
		t.Errorf("bad model: %v", model)
	}
}

func TestMultiVarUnsat(t *testing.T) {
	b := expr.NewBuilder()
	v := vars(2)
	x := b.Cast(ir.OpZExt, b.Var(v[0]), 32)
	y := b.Cast(ir.OpZExt, b.Var(v[1]), 32)
	s := New(Options{})
	// x + y == 600 is impossible for two bytes (max 510).
	sat, _, err := s.Sat([]*expr.Expr{
		b.Cmp(ir.OpEq, b.Bin(ir.OpAdd, x, y), b.Const(32, 600)),
	})
	if err != nil || sat {
		t.Fatalf("want unsat, got sat=%v err=%v", sat, err)
	}
}

func TestIndependenceGroups(t *testing.T) {
	b := expr.NewBuilder()
	v := vars(4)
	s := New(Options{})
	// Two independent pairs; both satisfiable.
	cs := []*expr.Expr{
		b.Cmp(ir.OpEq, b.Var(v[0]), b.Var(v[1])),
		b.Cmp(ir.OpNe, b.Var(v[2]), b.Var(v[3])),
	}
	sat, model, err := s.Sat(cs)
	if err != nil || !sat {
		t.Fatalf("sat=%v err=%v", sat, err)
	}
	if model.Value(v[0]) != model.Value(v[1]) || model.Value(v[2]) == model.Value(v[3]) {
		t.Errorf("bad model %v", model)
	}
	groups := independentGroups(cs)
	if len(groups) != 2 {
		t.Errorf("got %d groups, want 2", len(groups))
	}
}

func TestQueryCache(t *testing.T) {
	b := expr.NewBuilder()
	v := vars(1)
	x := b.Var(v[0])
	s := New(Options{})
	q := []*expr.Expr{b.Cmp(ir.OpUGt, x, b.Const(8, 10))}
	if _, _, err := s.Sat(q); err != nil {
		t.Fatal(err)
	}
	// Model reuse or cache must kick in on the repeat.
	before := s.Stats.CacheHits + s.Stats.ModelReuseHits
	if _, _, err := s.Sat(q); err != nil {
		t.Fatal(err)
	}
	if s.Stats.CacheHits+s.Stats.ModelReuseHits <= before {
		t.Error("repeated query did not hit any cache")
	}
}

func TestTableReadConstraint(t *testing.T) {
	b := expr.NewBuilder()
	v := vars(1)
	table := make([]uint64, 256)
	table['x'] = 1
	idx := b.Cast(ir.OpZExt, b.Var(v[0]), 64)
	read := b.Read(table, 8, idx)
	s := New(Options{})
	sat, model, err := s.Sat([]*expr.Expr{
		b.Cmp(ir.OpNe, read, b.Const(8, 0)),
	})
	if err != nil || !sat {
		t.Fatalf("sat=%v err=%v", sat, err)
	}
	if model.Value(v[0]) != 'x' {
		t.Errorf("model = %q, want 'x'", model.Value(v[0]))
	}
}

// TestRandomConsistency: for random constraint sets, (a) SAT answers
// come with models that actually satisfy the constraints, and (b) the
// solver agrees with brute force on 1- and 2-var problems.
func TestRandomConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		b := expr.NewBuilder()
		v := vars(2)
		x := b.Cast(ir.OpZExt, b.Var(v[0]), 32)
		y := b.Cast(ir.OpZExt, b.Var(v[1]), 32)
		mk := func() *expr.Expr {
			c := uint64(r.Intn(300))
			ops := []ir.Op{ir.OpEq, ir.OpNe, ir.OpULt, ir.OpUGe}
			op := ops[r.Intn(len(ops))]
			switch r.Intn(3) {
			case 0:
				return b.Cmp(op, x, b.Const(32, c))
			case 1:
				return b.Cmp(op, y, b.Const(32, c))
			default:
				return b.Cmp(op, b.Bin(ir.OpAdd, x, y), b.Const(32, c))
			}
		}
		var cs []*expr.Expr
		for i := 0; i < 1+r.Intn(3); i++ {
			cs = append(cs, mk())
		}
		s := New(Options{})
		sat, model, err := s.Sat(cs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute force ground truth.
		truth := false
		for a := 0; a < 256 && !truth; a++ {
			for bb := 0; bb < 256; bb++ {
				asn := expr.Model{{Var: v[0], Val: uint64(a)}, {Var: v[1], Val: uint64(bb)}}
				all := true
				for _, c := range cs {
					if expr.Eval(c, asn) == 0 {
						all = false
						break
					}
				}
				if all {
					truth = true
					break
				}
			}
		}
		if sat != truth {
			t.Fatalf("trial %d: solver=%v brute=%v for %v", trial, sat, truth, cs)
		}
		if sat {
			for _, c := range cs {
				if expr.Eval(c, model) == 0 {
					t.Fatalf("trial %d: model %v does not satisfy %s", trial, model, c)
				}
			}
		}
	}
}

func TestBudgetExhaustion(t *testing.T) {
	b := expr.NewBuilder()
	v := vars(8)
	// A constraint coupling 8 vars with a tiny budget must error, not
	// hang or return a wrong verdict.
	sum := b.Cast(ir.OpZExt, b.Var(v[0]), 32)
	for i := 1; i < 8; i++ {
		sum = b.Bin(ir.OpAdd, sum, b.Cast(ir.OpZExt, b.Var(v[i]), 32))
	}
	// sum*sum forces non-linear reasoning.
	q := b.Cmp(ir.OpEq, b.Bin(ir.OpMul, sum, sum), b.Const(32, 1_000_003))
	s := New(Options{MaxWork: 500})
	s.maxNodes = 4
	_, _, err := s.Sat([]*expr.Expr{q})
	if err == nil {
		t.Skip("solved within tiny budget (fine, but unexpected)")
	}
	if err != ErrBudget {
		t.Errorf("err = %v, want ErrBudget", err)
	}
	if s.Stats.Failures != 1 {
		t.Errorf("failures = %d", s.Stats.Failures)
	}
}

// TestReleasedStoreIsReused: a released solver's search storage is what
// the next solver takes (the free list is last in, first out), and a
// solver over storage another one used — for a larger group, then for
// the same one — decides a group exactly as a solver over fresh storage
// does: the same verdict, model, Stats and propagation snapshot. A
// listed store holds no pointer into the DAG it last compiled.
func TestReleasedStoreIsReused(t *testing.T) {
	g := PartitionOf(coupledGroup(expr.NewBuilder(), 420, 0)).Groups()[0]
	solve := func(s *Solver) (cacheEntry, Stats) {
		t.Helper()
		e, err := s.solveGroup(g)
		if err != nil {
			t.Fatal(err)
		}
		return *e, s.Stats
	}
	fresh := New(Options{})
	fresh.searchStore = &searchStore{reuseEval: expr.NewEvaluator()}
	want, wantStats := solve(fresh)
	if !want.sat || want.prop == nil {
		t.Fatalf("the group: sat=%v snapshot=%v, want a satisfiable group with a snapshot", want.sat, want.prop != nil)
	}

	big := New(Options{})
	if _, err := big.solveGroup(PartitionOf(cksumGroup(expr.NewBuilder())).Groups()[0]); err != nil {
		t.Fatal(err)
	}
	st := big.searchStore
	big.Release()
	if big.searchStore != nil {
		t.Fatal("a released solver kept its store")
	}
	tp := &st.scratch.t
	for _, v := range tp.vars[:cap(tp.vars)] {
		if v != nil {
			t.Fatal("a listed store still holds a tape variable")
		}
	}
	for _, op := range tp.ops[:cap(tp.ops)] {
		if op.table != nil {
			t.Fatal("a listed store still holds a table")
		}
	}
	if len(st.scratch.slotOf) != 0 || st.prop.t != nil || st.prop.domains != nil {
		t.Fatal("a listed store still holds its slot map, tape or domains")
	}

	for i := 0; i < 2; i++ {
		s := New(Options{})
		if s.searchStore != st {
			t.Fatalf("solver %d did not take the store released last", i)
		}
		got, gotStats := solve(s)
		if got.sat != want.sat || !slices.Equal(got.model, want.model) || gotStats != wantStats || !slices.Equal(got.prop, want.prop) {
			t.Errorf("solver %d over a released store: sat=%v model=%v stats=%+v, %d snapshot bytes; over fresh storage sat=%v model=%v stats=%+v, %d bytes",
				i, got.sat, got.model, gotStats, len(got.prop), want.sat, want.model, wantStats, len(want.prop))
		}
		s.Release()
	}
}
