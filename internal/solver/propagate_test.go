package solver

import (
	"fmt"
	"slices"
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

// lastSlashUnsat is TestPropagateUnsatIteChain's group.
func lastSlashUnsat(b *expr.Builder, vs []*expr.Var) []*expr.Expr {
	ls := lastSlashChain(b, vs)
	return []*expr.Expr{
		// ls+2 >= 4, i.e. ls = 2.
		uge4(b, b.Bin(ir.OpAdd, ls, b.Const(32, 2))),
		// (ls+1)+1 < 4, i.e. ls <= 1.
		b.Bin(ir.OpXor, uge4(b, b.Bin(ir.OpAdd, b.Bin(ir.OpAdd, ls, b.Const(32, 1)), b.Const(32, 1))), b.Const(1, 1)),
	}
}

// lastSlashCollapse is TestPropagateCollapsesDomain's group, satisfiable
// only with v0 = '/'.
func lastSlashCollapse(b *expr.Builder, vs []*expr.Var) []*expr.Expr {
	ls := lastSlashChain(b, vs)
	return []*expr.Expr{
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
}

// lastSlashPrune is lastSlashCollapse with only v2 tested: forward sets
// stay finite, and the demands prune v0's domain to '/' without proving
// anything unsat.
func lastSlashPrune(b *expr.Builder, vs []*expr.Var) []*expr.Expr {
	return lastSlashCollapse(b, vs)[2:]
}

// lastSlashGroups are the three groups above, each compiled.
func lastSlashGroups() []*tape {
	var out []*tape
	for _, build := range []func(*expr.Builder, []*expr.Var) []*expr.Expr{lastSlashUnsat, lastSlashCollapse, lastSlashPrune} {
		out = append(out, compileGroup(PartitionOf(build(expr.NewBuilder(), vars(3))).Groups()[0]))
	}
	return out
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
	cs := lastSlashUnsat(b, vs)
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
	cs := lastSlashCollapse(b, vs)
	s := New(Options{})
	got, model, err := s.Sat(cs)
	if err != nil {
		t.Fatalf("Sat: %v", err)
	}
	if !got {
		t.Fatal("satisfiable ls query reported unsat")
	}
	if model.Value(vs[0]) != 47 {
		t.Errorf("model v0 = %d, want 47", model.Value(vs[0]))
	}
	if s.Stats.Assignments > 10_000 {
		t.Errorf("search tried %d assignments, want < 10000 (propagation must prune first)", s.Stats.Assignments)
	}
}

// runUngated is the sweep the stamps answer to, the parent's (34f27ee):
// every round runs every forward and demand step of every constraint,
// none skipped. The steps themselves are run's, so what this holds run
// to is the gating alone.
func (p *propagator) runUngated(t *tape, domains []domain) bool {
	p.reset(t, domains)
	defer p.arena.settle()
	for round := 0; round < propMaxRounds; round++ {
		p.enumerate()
		p.changed = false
		for ci := range t.roots {
			if p.constraintPassUngated(ci); p.unsat {
				return false
			}
		}
		if p.pruneDomains(); p.unsat {
			return false
		}
		if !p.changed {
			break
		}
	}
	return true
}

func (p *propagator) constraintPassUngated(ci int) {
	sub, root := p.t.csub[ci], p.t.roots[ci]
	for s := int32(0); s <= root; s++ {
		if sub[s>>6]&(1<<uint(s&63)) == 0 {
			continue
		}
		if p.forward(s); p.unsat {
			return
		}
	}
	if p.demandRoot(root); p.unsat {
		return
	}
	for s := root; s >= 0; s-- {
		if sub[s>>6]&(1<<uint(s&63)) == 0 || p.dem[s].top {
			continue
		}
		op := &p.t.ops[s]
		if op.kind == expr.KVar || op.kind == expr.KConst {
			continue
		}
		if op.kind == expr.KSelect {
			if p.demandSelectBranch(s); p.unsat {
				return
			}
		}
		for which := 0; which < 3; which++ {
			if p.demand(s, which); p.unsat {
				return
			}
		}
	}
}

// sameSet reports whether two value sets hold the same values.
func sameSet(a, b *vset) bool {
	if a.top || b.top {
		return a.top == b.top
	}
	if len(a.vals) != len(b.vals) {
		return false
	}
	for _, v := range a.vals {
		if !b.has(v) {
			return false
		}
	}
	return true
}

// TestPropagateStampsMatchFullSweep holds the stamp-gated run to the
// ungated sweep: the same verdict, the same pruned domains and the same
// forward and demand sets in every slot, over the fuzz DAG groups,
// basename's last-slash groups and the wc stream's — from full domains,
// what the search propagates, and from a sparse domain per variable,
// where forward sets stay finite and rounds repeat. One gated propagator
// serves every run, so no stamp may leak from one run into the next.
func TestPropagateStampsMatchFullSweep(t *testing.T) {
	var gated propagator
	var runs, refuted, pruned int
	check := func(t *testing.T, tp *tape, seed uint64, label string) {
		for _, sparse := range []bool{false, true} {
			start := make([]domain, len(tp.vars))
			for vi, v := range tp.vars {
				start[vi] = fullDomain(v.Bits)
				if sparse {
					for w := range start[vi] {
						seed = seed*6364136223846793005 + 1442695040888963407
						start[vi][w] &= seed & (seed >> 13) & (seed >> 29) & (seed >> 41)
					}
					start[vi][0] |= 1
				}
			}
			got, want := slices.Clone(start), slices.Clone(start)
			ref := new(propagator)
			ok, wantOK := gated.run(tp, got), ref.runUngated(tp, want)
			if ok != wantOK || !slices.Equal(got, want) {
				t.Errorf("%s sparse=%v: stamped run %v %x, ungated sweep %v %x", label, sparse, ok, got, wantOK, want)
				continue
			}
			for s := range tp.ops {
				if !sameSet(&gated.fwd[s], &ref.fwd[s]) || !sameSet(&gated.dem[s], &ref.dem[s]) {
					t.Errorf("%s sparse=%v: slot %d: stamped fwd %v dem %v, ungated fwd %v dem %v",
						label, sparse, s, gated.fwd[s], gated.dem[s], ref.fwd[s], ref.dem[s])
					break
				}
			}
			runs++
			if !ok {
				refuted++
			} else if !slices.Equal(got, start) {
				pruned++
			}
		}
	}
	t.Run("lastslash", func(t *testing.T) {
		for i, tp := range lastSlashGroups() {
			check(t, tp, uint64(i), fmt.Sprintf("group %d", i))
		}
	})
	t.Run("fuzzdag", func(t *testing.T) {
		fuzzDAGGroups(func(tp *tape, seed uint64, label string) { check(t, tp, seed, label) })
	})
	t.Run("wc", func(t *testing.T) {
		wcGroups(t, func(tp *tape, seed uint64, label string) { check(t, tp, seed, label) })
	})
	t.Logf("%d runs: %d refuted, %d pruned a domain", runs, refuted, pruned)
	if refuted == 0 || pruned == 0 {
		t.Errorf("no run refuted (%d) or pruned (%d): the groups no longer exercise propagation", refuted, pruned)
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

// buildIndexedDAG interprets data as constraints over basename's shape
// shrunk to two bytes: an index the bytes compute, idx = ite(y == K1, 1,
// ite(x == K0, 0, -1)) with K0, K1 the first two bytes of data, and
// loads through an ite chain at idx+d over the buffer (x, y, x, 0...).
// Each following pair compares x, y or such a load with a constant, by
// eq, ne, ult, slt, uge or sge (the first three for an op byte below 9). The
// index and the loads' conditions hold a few values each while the bytes
// behind them hold up to 256, so propagation converges on groups that
// only a case split on the index refutes: y == 0 with the loads at
// idx+1 and idx+2 non-zero (indexedRefuted).
func buildIndexedDAG(b *expr.Builder, vs []*expr.Var, data []byte) []*expr.Expr {
	if len(data) < 2 {
		return nil
	}
	x, y := b.Var(vs[0]), b.Var(vs[1])
	idx := b.Select(b.Cmp(ir.OpEq, y, b.Const(8, uint64(data[0]))), b.Const(32, 1),
		b.Select(b.Cmp(ir.OpEq, x, b.Const(8, uint64(data[1]))), b.Const(32, 0), b.Const(32, 0xFFFFFFFF)))
	cmpOps := []ir.Op{ir.OpEq, ir.OpNe, ir.OpULt, ir.OpSLt, ir.OpUGe, ir.OpSGe}
	var cs []*expr.Expr
	for i := 2; i+1 < len(data) && len(cs) < 8; i += 2 {
		op, arg := data[i], uint64(data[i+1])
		v := x
		switch op % 3 {
		case 1:
			v = y
		case 2:
			at := b.Bin(ir.OpAdd, idx, b.Const(32, arg%3))
			v = b.Select(b.Cmp(ir.OpEq, at, b.Const(32, 0)), x,
				b.Select(b.Cmp(ir.OpEq, at, b.Const(32, 1)), y,
					b.Select(b.Cmp(ir.OpEq, at, b.Const(32, 2)), x, b.Const(8, 0))))
			arg /= 3
		}
		if c := b.Cmp(cmpOps[int(op/3)%len(cmpOps)], v, b.Const(8, arg)); c.Kind != expr.KConst {
			cs = append(cs, c)
		}
	}
	return cs
}

// indexedRefuted is buildIndexedDAG's input for x != 0, y == 0 and the
// loads at idx+1 and idx+2 non-zero, with K0 = K1 = '/': unsat, since
// idx is -1 or 0 and y is the load at idx+2 for the one and at idx+1 for
// the other; no set refutes it, each case of the index does.
var indexedRefuted = []byte{47, 47, 3, 0, 1, 0, 5, 1, 5, 2}

// FuzzSearchVsBruteForce is the ground-truth oracle for the whole
// decision procedure — propagation plus backtracking search: on random
// two-variable constraint DAGs the solver's verdict must match
// exhaustive enumeration of all 65536 assignments. This is the guard
// against propagation over-pruning (wrong unsat) that the conformance
// suites cannot provide, since those only compare the solver with
// itself across schedules. Each input is read as two groups, a random
// DAG (buildFuzzDAG) and an indexed load (buildIndexedDAG), where
// refutation by cases fires; indexedRefuted must be refuted that way.
// Each group is solved three times: whole, from scratch; prefix by prefix
// on one solver carrying the partition, the way the engine grows a path
// condition; and with every prefix's groups decided on one solver, model
// reuse bypassed — so searches seeded from a carried solution set or
// resuming propagation from a prefix's fixpoint (Solver.carried) answer
// to enumeration too.
func FuzzSearchVsBruteForce(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{6, 2, 3, 1, 4, 4, 2, 9, 3, 0, 5, 5})
	f.Add([]byte{4, 4, 3, 3, 2, 2, 3, 5, 4, 0})
	f.Add([]byte{2, 8, 3, 4, 0, 1, 2, 0, 3, 2, 4, 7, 5, 0})
	// 90 < a, 110 <= a, 132 <= a: each excludes the model of the one
	// before, so the second and third prefixes are seeded searches.
	f.Add([]byte{1, 9, 3, 2, 0, 0, 1, 10, 3, 3, 0, 0, 1, 11, 3, 3})
	f.Add(indexedRefuted)
	// K1 = 3, K0 = '/', y == 0 and the load at idx+2 non-zero: satisfiable
	// by idx = 0 (x = '/') alone, which is the last case of its split.
	f.Add([]byte{3, 47, 1, 0, 5, 2})
	// Order compares of a byte with the edges of the unsigned and signed
	// byte: x < 128, y >= 127, x >= 0, y < 255; then x <s 0, y <s 127,
	// x >=s -1, y >=s -128, y >=s 0 (the comparison kernels' boundaries).
	f.Add([]byte{47, 3, 6, 128, 13, 127, 12, 0, 7, 255})
	f.Add([]byte{47, 3, 9, 0, 10, 127, 15, 255, 16, 128, 16, 0})
	s := New(Options{})
	if sat, _, err := s.Sat(buildIndexedDAG(expr.NewBuilder(), vars(2), indexedRefuted)); sat || err != nil || s.caseRefuted != 1 || s.Stats.Assignments != 0 {
		f.Fatalf("indexed seed: sat=%v err=%v, %d groups refuted by cases, %d assignments: want unsat, refuted by cases, 0",
			sat, err, s.caseRefuted, s.Stats.Assignments)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := vars(2)
		checkVsBruteForce(t, vs, buildFuzzDAG(expr.NewBuilder(), vs, data))
		checkVsBruteForce(t, vs, buildIndexedDAG(expr.NewBuilder(), vs, data))
	})
}

// checkVsBruteForce holds the solver's verdicts on cs and its prefixes,
// over the two variables vs, to exhaustive enumeration.
func checkVsBruteForce(t *testing.T, vs []*expr.Var, cs []*expr.Expr) {
	if len(cs) == 0 {
		return
	}
	// satUpTo is the longest prefix of cs some assignment satisfies:
	// cs[:k] is satisfiable exactly when k <= satUpTo.
	satUpTo := 0
	asn := expr.Model{{Var: vs[0]}, {Var: vs[1]}}
	ev := expr.NewEvaluator()
brute:
	for a := uint64(0); a < 256; a++ {
		for c := uint64(0); c < 256; c++ {
			asn[0].Val, asn[1].Val = a, c
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

	dec := New(Options{})
prefixes:
	for k := 1; k <= len(cs); k++ {
		got := true
		for _, g := range PartitionOf(cs[:k]).Groups() {
			e, err := dec.solveGroup(g)
			if err != nil {
				continue prefixes
			}
			if e.sat && !satisfies(g.cs, e.model) {
				t.Fatalf("prefix %d: model %v does not satisfy its group", k, e.model)
			}
			got = got && e.sat
		}
		if want := k <= satUpTo; got != want {
			t.Fatalf("prefix %d: solver deciding every prefix says sat=%v, brute force says %v for %v", k, got, want, cs[:k])
		}
	}
}
