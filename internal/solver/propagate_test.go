package solver

import (
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

// lastSlashChain builds the basename "last slash index" expression over
// three byte variables: ite(v2==47, 2, ite(v1==47, 1, ite(v0==47, 0,
// -1))) as an i32 — the shape whose unsat groups blew the solver budget
// under plain enumeration (see propagate.go).
func lastSlashChain(b *expr.Builder, vs []*expr.Var) *expr.Expr {
	ls := b.Const(32, 0xFFFFFFFF)
	for i, v := range vs {
		cond := b.Cmp(ir.OpEq, b.Var(v), b.Const(8, 47))
		ls = b.Select(cond, b.Const(32, uint64(i)), ls)
	}
	return ls
}

// uge4 builds uge(sext(e to i64), 4), the "index past the buffer"
// bounds test basename's loop guards compile to.
func uge4(b *expr.Builder, e *expr.Expr) *expr.Expr {
	return b.Cmp(ir.OpUGe, b.Cast(ir.OpSExt, e, 64), b.Const(64, 4))
}

// TestPropagateUnsatIteChain pins the pathological basename group to
// unsat, decided by value-set propagation alone. The two constraints
// force ls = 2 and ls ≤ 1 through *syntactically different* sub-DAGs
// (add(ls,2) vs add(add(ls,1),1)), so refuting them requires the
// cross-constraint demand sharing on the hash-consed ls slot — exactly
// what plain enumeration needed ~10^8 assignments for.
func TestPropagateUnsatIteChain(t *testing.T) {
	b := expr.NewBuilder()
	vs := vars(3)
	ls := lastSlashChain(b, vs)
	cs := []*expr.Expr{
		// ls+2 >= 4, i.e. ls = 2.
		uge4(b, b.Bin(ir.OpAdd, ls, b.Const(32, 2))),
		// (ls+1)+1 < 4, i.e. ls <= 1.
		b.Bin(ir.OpXor, uge4(b, b.Bin(ir.OpAdd, b.Bin(ir.OpAdd, ls, b.Const(32, 1)), b.Const(32, 1))), b.Const(1, 1)),
	}
	s := New(Options{})
	got, _, err := s.Sat(cs)
	if err != nil {
		t.Fatalf("Sat: %v", err)
	}
	if got {
		t.Fatal("contradictory ls constraints reported sat")
	}
	if s.Stats.Nodes != 0 {
		t.Errorf("unsat proof explored %d search nodes, want 0 (propagation must close it)", s.Stats.Nodes)
	}
}

// TestPropagateCollapsesDomain: a satisfiable query of the same shape
// whose only models have v0 = '/'. Demand propagation must collapse
// v0's domain before the search runs, or the search visits tens of
// millions of assignments finding the needle.
func TestPropagateCollapsesDomain(t *testing.T) {
	b := expr.NewBuilder()
	vs := vars(3)
	ls := lastSlashChain(b, vs)
	cs := []*expr.Expr{
		// Every byte non-zero.
		b.Cmp(ir.OpNe, b.Var(vs[0]), b.Const(8, 0)),
		b.Cmp(ir.OpNe, b.Var(vs[1]), b.Const(8, 0)),
		b.Cmp(ir.OpNe, b.Var(vs[2]), b.Const(8, 0)),
		// ls+3 < 4 → ls ∈ {-1, 0}.
		b.Bin(ir.OpXor, uge4(b, b.Bin(ir.OpAdd, ls, b.Const(32, 3))), b.Const(1, 1)),
		// buf[ls+3] == 0 with buf = (v0,v1,v2,0…): rules out ls = -1
		// (buf[2] = v2 ≠ 0), leaving ls = 0, i.e. v0 = '/'.
		b.Bin(ir.OpXor,
			b.Cmp(ir.OpNe, bufAt(b, vs, b.Bin(ir.OpAdd, ls, b.Const(32, 3))), b.Const(8, 0)),
			b.Const(1, 1)),
	}
	s := New(Options{})
	got, model, err := s.Sat(cs)
	if err != nil {
		t.Fatalf("Sat: %v", err)
	}
	if !got {
		t.Fatal("satisfiable ls query reported unsat")
	}
	if model[vs[0]] != 47 {
		t.Errorf("model v0 = %d, want 47", model[vs[0]])
	}
	if s.Stats.Assignments > 10_000 {
		t.Errorf("search tried %d assignments, want < 10000 (propagation must prune first)", s.Stats.Assignments)
	}
}

// bufAt builds ite(sext(idx)==0, v0, ite(sext(idx)==1, v1,
// ite(sext(idx)==2, v2, 0))) — basename's symbolic buffer load.
func bufAt(b *expr.Builder, vs []*expr.Var, idx *expr.Expr) *expr.Expr {
	idx64 := b.Cast(ir.OpSExt, idx, 64)
	out := b.Const(8, 0)
	for i := len(vs) - 1; i >= 0; i-- {
		cond := b.Cmp(ir.OpEq, idx64, b.Const(64, uint64(i)))
		out = b.Select(cond, b.Var(vs[i]), out)
	}
	return out
}

// FuzzSearchVsBruteForce is the ground-truth oracle for the whole
// decision procedure — propagation plus backtracking search: on random
// two-variable constraint DAGs the solver's verdict must match
// exhaustive enumeration of all 65536 assignments. This is the guard
// against propagation over-pruning (wrong unsat) that the conformance
// suites cannot provide, since those only compare the solver with
// itself across schedules. Each input is solved twice: whole, from
// scratch; and prefix by prefix on one solver carrying the partition,
// the way the engine grows a path condition — so searches seeded from a
// carried solution set (Solver.carriedSet) answer to enumeration too.
func FuzzSearchVsBruteForce(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{6, 2, 3, 1, 4, 4, 2, 9, 3, 0, 5, 5})
	f.Add([]byte{4, 4, 3, 3, 2, 2, 3, 5, 4, 0})
	f.Add([]byte{2, 8, 3, 4, 0, 1, 2, 0, 3, 2, 4, 7, 5, 0})
	// 90 < a, 110 <= a, 132 <= a: each excludes the model of the one
	// before, so the second and third prefixes are seeded searches.
	f.Add([]byte{1, 9, 3, 2, 0, 0, 1, 10, 3, 3, 0, 0, 1, 11, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := expr.NewBuilder()
		vs := vars(2)
		cs := buildFuzzDAG(b, vs, data)
		if len(cs) == 0 {
			return
		}
		// satUpTo is the longest prefix of cs some assignment satisfies:
		// cs[:k] is satisfiable exactly when k <= satUpTo.
		satUpTo := 0
		asn := make(map[*expr.Var]uint64, 2)
		ev := expr.NewEvaluator()
	brute:
		for a := uint64(0); a < 256; a++ {
			for c := uint64(0); c < 256; c++ {
				asn[vs[0]], asn[vs[1]] = a, c
				ev.Bind(asn)
				k := 0
				for k < len(cs) && ev.Eval(cs[k]) != 0 {
					k++
				}
				if k > satUpTo {
					if satUpTo = k; k == len(cs) {
						break brute
					}
				}
			}
		}

		s := New(Options{})
		got, model, err := s.Sat(cs)
		if err == nil { // budget exhaustion makes no verdict claim
			if got && !satisfies(cs, model) {
				t.Fatalf("model %v does not satisfy query", model)
			}
			if want := satUpTo == len(cs); got != want {
				t.Fatalf("solver says sat=%v, brute force says %v for %v", got, want, cs)
			}
		}

		chain := New(Options{})
		var p *Partition
		for k, c := range cs {
			p = p.Extend(c)
			got, model, err := chain.SatPartition(p)
			if err != nil {
				continue
			}
			if got && !satisfies(cs[:k+1], model) {
				t.Fatalf("prefix %d: model %v does not satisfy it", k+1, model)
			}
			if want := k+1 <= satUpTo; got != want {
				t.Fatalf("prefix %d: chained solver says sat=%v, brute force says %v for %v", k+1, got, want, cs[:k+1])
			}
		}
	})
}
