package solver

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

// lastSlashCases builds basename's last-slash group at n=4 through the
// builder, as -O3 and -OVERIFY search it: the slash index s ∈ {-1, 0, 1}
// of the first two bytes (lastSlashChain), those two bytes non-zero,
// byte zero == 0, and for k = 1, 2, 3 the bound s+k < 5 and the load
// buf[s+k] over the four bytes non-zero (bufAt). With zero = 2 it is
// unsat — each value of s reads byte 2 at one k — and the search used to
// prove that by trying 326,402 values; with zero = 3 it is satisfiable,
// by s = -1 alone.
func lastSlashCases(b *expr.Builder, vs []*expr.Var, zero int) []*expr.Expr {
	not := func(e *expr.Expr) *expr.Expr { return b.Bin(ir.OpXor, e, b.Const(1, 1)) }
	nonZero := func(e *expr.Expr) *expr.Expr { return b.Cmp(ir.OpNe, e, b.Const(8, 0)) }
	below5 := func(e *expr.Expr) *expr.Expr {
		return not(b.Cmp(ir.OpUGe, b.Cast(ir.OpSExt, e, 64), b.Const(64, 5)))
	}
	cs := []*expr.Expr{nonZero(b.Var(vs[0])), nonZero(b.Var(vs[1]))}
	at := lastSlashChain(b, vs[:2])
	for k := 1; k <= 3; k++ {
		at = b.Bin(ir.OpAdd, at, b.Const(32, 1))
		cs = append(cs, below5(at))
		if k == 1 {
			cs = append(cs, not(nonZero(b.Var(vs[zero]))))
		}
		cs = append(cs, nonZero(bufAt(b, vs, at)))
	}
	return cs
}

// TestCasesRefuteLastSlash pins refutation by cases (propagate.go). The
// n=4 last-slash group is decided unsat with no search node and no
// assignment, every case of its split refuted. Groups the split does not
// refute — the satisfiable last-slash groups, one of them split with a
// case refuted and one not — get the model, the nodes and the
// assignments of propagation and search without the split, and keep the
// fixpoint the run converged on. A run cut off by propMaxRounds is not
// split.
func TestCasesRefuteLastSlash(t *testing.T) {
	t.Run("unsat", func(t *testing.T) {
		s := New(Options{})
		sat, _, err := s.Sat(lastSlashCases(expr.NewBuilder(), vars(4), 2))
		if sat || err != nil {
			t.Fatalf("sat=%v err=%v, want unsat", sat, err)
		}
		if s.Stats.Nodes != 0 || s.Stats.Assignments != 0 || s.caseSplits != 1 || s.caseRefuted != 1 {
			t.Errorf("%d nodes, %d assignments, %d splits, %d refuted: want 0, 0, 1, 1",
				s.Stats.Nodes, s.Stats.Assignments, s.caseSplits, s.caseRefuted)
		}
		t.Logf("refuted in %d case runs", s.caseRuns)
	})

	t.Run("sat", func(t *testing.T) {
		var split int64
		for name, cs := range map[string][]*expr.Expr{
			"collapse": lastSlashCollapse(expr.NewBuilder(), vars(3)),
			"prune":    lastSlashPrune(expr.NewBuilder(), vars(3)),
			"zero3":    lastSlashCases(expr.NewBuilder(), vars(4), 3),
		} {
			groups := PartitionOf(cs).Groups()
			if len(groups) != 1 {
				t.Fatalf("%s: %d groups, want 1", name, len(groups))
			}
			g := groups[0]
			s := New(Options{})
			e, err := s.search(g)
			split += s.caseSplits

			tp := compileGroup(g)
			var p propagator
			doms := fullDomains(tp)
			if !p.run(tp, doms) || !p.converged {
				t.Fatalf("%s: propagation refuted the group or did not converge", name)
			}
			ref := New(Options{})
			sat, model, refErr := ref.searchTape(tp, doms, searchConfig{}, ref.opts.MaxWork)
			if err != refErr || e.sat != sat || !sat || !slices.Equal(e.model, model) {
				t.Errorf("%s: sat=%v model=%v err=%v, without the split sat=%v model=%v err=%v", name, e.sat, e.model, err, sat, model, refErr)
			}
			if s.Stats.Nodes != ref.Stats.Nodes || s.Stats.Assignments != ref.Stats.Assignments {
				t.Errorf("%s: %d nodes, %d assignments; without the split %d, %d", name,
					s.Stats.Nodes, s.Stats.Assignments, ref.Stats.Nodes, ref.Stats.Assignments)
			}
			if want := p.snapshot(g.vs.Vars(), orderKey(g.cs)); !bytes.Equal(e.prop, want) {
				t.Errorf("%s: the entry keeps another fixpoint than the run converged on", name)
			}
			if s.caseRefuted != 0 {
				t.Errorf("%s: a satisfiable group counted as refuted", name)
			}
		}
		if split == 0 {
			t.Error("no satisfiable group was split: the groups no longer exercise an unrefuted split")
		}
	})

	t.Run("unconverged", func(t *testing.T) {
		cs := equalityChain(expr.NewBuilder(), 10)
		tp := compileList(cs)
		var p propagator
		if ok := p.run(tp, fullDomains(tp)); !ok || p.converged {
			t.Fatalf("propagation ok=%v converged=%v, want a run cut off by propMaxRounds", ok, p.converged)
		}
		if _, _, n := p.splitSlot(); n == 0 {
			t.Fatal("the cut-off run has no slot to split")
		}
		s := New(Options{})
		if sat, _, err := s.Sat(cs); !sat || err != nil {
			t.Fatalf("sat=%v err=%v, want sat", sat, err)
		}
		if s.caseSplits != 0 {
			t.Errorf("%d splits of a run that did not converge, want 0", s.caseSplits)
		}
	})
}

// equalityChain is v0 == v1, …, v[n-2] == v[n-1], then v[n-1] < 2 and
// zext(v[n-1])+3 != 9: each round of propagation carries the last byte's
// two values one equality further back, so n bytes take n rounds, and
// the sum holds two values to split.
func equalityChain(b *expr.Builder, n int) []*expr.Expr {
	vs := make([]*expr.Var, n)
	for i := range vs {
		vs[i] = &expr.Var{Name: fmt.Sprintf("v%02d", i), Bits: 8, Idx: i}
	}
	var cs []*expr.Expr
	for i := 0; i+1 < n; i++ {
		cs = append(cs, b.Cmp(ir.OpEq, b.Var(vs[i]), b.Var(vs[i+1])))
	}
	last := b.Var(vs[n-1])
	return append(cs, b.Cmp(ir.OpULt, last, b.Const(8, 2)),
		b.Cmp(ir.OpNe, b.Bin(ir.OpAdd, b.Cast(ir.OpZExt, last, 32), b.Const(32, 3)), b.Const(32, 9)))
}
