package solver

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

// randomStream builds a random path-condition stream over n byte vars:
// single-var bounds, two-var links and table reads — the constraint mix
// the engine appends branch by branch.
func randomStream(b *expr.Builder, vs []*expr.Var, rng *rand.Rand, length int) []*expr.Expr {
	table := classTable()
	var pc []*expr.Expr
	for len(pc) < length {
		v := b.Var(vs[rng.Intn(len(vs))])
		switch rng.Intn(4) {
		case 0:
			pc = append(pc, b.Cmp(ir.OpULt, v, b.Const(8, uint64(1+rng.Intn(250)))))
		case 1:
			w := b.Var(vs[rng.Intn(len(vs))])
			c := b.Cmp(ir.OpULe, v, w)
			if c.Kind != expr.KConst {
				pc = append(pc, c)
			}
		case 2:
			read := b.Read(table, 8, b.Cast(ir.OpZExt, v, 64))
			pc = append(pc, b.Cmp(ir.OpEq, read, b.Const(8, 0)))
		default:
			pc = append(pc, b.Cmp(ir.OpNe, v, b.Const(8, uint64(rng.Intn(256)))))
		}
	}
	return pc
}

// TestPartitionMatchesScratch: extending a carried partition one
// constraint at a time must produce, at every prefix, exactly the
// groups a from-scratch partition of that prefix produces — same
// groups, same constraint order within groups, same group order.
func TestPartitionMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		b := expr.NewBuilder()
		vs := vars(6)
		pc := randomStream(b, vs, rng, 12)
		var p *Partition
		for k, c := range pc {
			p = p.Extend(c)
			scratch := PartitionOf(pc[:k+1])
			got, want := p.Groups(), scratch.Groups()
			if len(got) != len(want) {
				t.Fatalf("trial %d prefix %d: %d groups, scratch has %d", trial, k+1, len(got), len(want))
			}
			for i := range got {
				if fmt.Sprint(got[i].cs) != fmt.Sprint(want[i].cs) {
					t.Fatalf("trial %d prefix %d group %d: %v != scratch %v",
						trial, k+1, i, got[i].cs, want[i].cs)
				}
				if got[i].fp != want[i].fp {
					t.Fatalf("trial %d prefix %d group %d: fingerprint drift", trial, k+1, i)
				}
			}
		}
	}
}

// TestSatPartitionEquivalence: deciding through a carried partition
// must agree with the slice API on a fresh solver at every prefix, and
// models must satisfy the query.
func TestSatPartitionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		b := expr.NewBuilder()
		vs := vars(5)
		pc := randomStream(b, vs, rng, 8)
		carried := New(Options{})
		var p *Partition
		for k, c := range pc {
			p = p.Extend(c)
			fresh := New(Options{})
			want, _, errW := fresh.Sat(pc[:k+1])
			got, model, errG := carried.SatPartition(p)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("trial %d prefix %d: error drift %v vs %v", trial, k+1, errW, errG)
			}
			if got != want {
				t.Fatalf("trial %d prefix %d: sat=%v, fresh says %v", trial, k+1, got, want)
			}
			if got && !satisfies(pc[:k+1], model) {
				t.Fatalf("trial %d prefix %d: model does not satisfy query", trial, k+1)
			}
		}
	}
}

// TestPartitionVerdictReuse: groups decided on an earlier query and
// carried untouched into an extension are answered by the shared cache,
// one hit each, and only the new group is searched.
func TestPartitionVerdictReuse(t *testing.T) {
	b := expr.NewBuilder()
	vs := vars(3)
	s := New(Options{})
	s.history = 1
	p := PartitionOf([]*expr.Expr{
		b.Cmp(ir.OpEq, b.Var(vs[0]), b.Const(8, 7)),
		b.Cmp(ir.OpEq, b.Var(vs[1]), b.Const(8, 9)),
	})
	if sat, _, err := s.SatPartition(p); err != nil || !sat {
		t.Fatalf("sat=%v err=%v", sat, err)
	}
	// Extend with a third, independent constraint. The old groups are
	// in the cache; only the new group needs a search. Defeat model
	// reuse with a constraint the remembered model cannot satisfy.
	p2 := p.Extend(b.Cmp(ir.OpEq, b.Var(vs[2]), b.Const(8, 1)))
	before := s.Stats
	if sat, _, err := s.SatPartition(p2); err != nil || !sat {
		t.Fatalf("sat=%v err=%v", sat, err)
	}
	if hits := s.Stats.CacheHits - before.CacheHits; hits != 2 {
		t.Errorf("CacheHits delta = %d, want 2 (both untouched groups)", hits)
	}
	if searched := s.Stats.TapeCompiles - before.TapeCompiles; searched != 1 {
		t.Errorf("%d groups searched, want 1 (the new group)", searched)
	}
}

// TestNoDagWalksOnQueryPath: the per-query path — partitioning,
// search — must consume the interned variable sets; a fresh
// DAG walk anywhere shows up on the expr walk counter.
func TestNoDagWalksOnQueryPath(t *testing.T) {
	b := expr.NewBuilder()
	vs := vars(6)
	rng := rand.New(rand.NewSource(13))
	pc := randomStream(b, vs, rng, 10)
	start := expr.VarSetWalks()

	s := New(Options{})
	var p *Partition
	for _, c := range pc {
		p = p.Extend(c)
		if _, _, err := s.SatPartition(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Sat(pc); err != nil {
		t.Fatal(err)
	}
	if walks := expr.VarSetWalks() - start; walks != 0 {
		t.Errorf("per-query path performed %d fresh DAG walks; builder bitsets must cover it", walks)
	}
}

// TestFingerprintCanonical: the fingerprint depends only on the group's
// constraint set — append order and duplicates must not matter — and
// distinct groups get distinct fingerprints.
func TestFingerprintCanonical(t *testing.T) {
	b := expr.NewBuilder()
	vs := vars(2)
	c1 := b.Cmp(ir.OpULt, b.Var(vs[0]), b.Const(8, 10))
	c2 := b.Cmp(ir.OpUGe, b.Var(vs[0]), b.Const(8, 3))
	c3 := b.Cmp(ir.OpEq, b.Var(vs[0]), b.Var(vs[1]))

	fpOf := func(cs ...*expr.Expr) Fingerprint {
		p := PartitionOf(cs)
		if len(p.Groups()) != 1 {
			t.Fatalf("want one group, got %d", len(p.Groups()))
		}
		return p.Groups()[0].Fingerprint()
	}
	if fpOf(c1, c2, c3) != fpOf(c3, c2, c1) {
		t.Error("fingerprint depends on constraint order")
	}
	if fpOf(c1, c2, c3) != fpOf(c1, c2, c1, c3, c2) {
		t.Error("fingerprint depends on duplicate constraints")
	}
	seen := map[Fingerprint]bool{fpOf(c1): true}
	for _, fp := range []Fingerprint{fpOf(c2), fpOf(c3), fpOf(c1, c2), fpOf(c1, c2, c3)} {
		if seen[fp] {
			t.Error("distinct groups share a fingerprint")
		}
		seen[fp] = true
	}

	// The key carriedSet finds for each prefix of a group's constraints,
	// by subtracting the keys of the constraints after it, is the key of
	// that prefix partitioned from scratch: the sum of its groups' keys
	// (one group when the prefix is connected, as the prefixes of a
	// single-variable group are).
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		bld := expr.NewBuilder()
		for _, g := range PartitionOf(randomStream(bld, vars(4), rng, 16)).Groups() {
			fp := g.Fingerprint()
			for k := len(g.cs) - 1; k >= 1; k-- {
				fp = fp.minus(idKey(g.cs[k].ID()))
				var want Fingerprint
				for _, pg := range PartitionOf(g.cs[:k]).Groups() {
					want = want.plus(pg.Fingerprint())
				}
				if fp != want {
					t.Fatalf("trial %d: prefix %d of %v: key by subtraction %v, from scratch %v", trial, k, g.cs, fp, want)
				}
			}
		}
	}
}

// TestOptionDefaults pins the documented limits: the comments and
// NewWithCache must not drift apart again.
func TestOptionDefaults(t *testing.T) {
	s := New(Options{})
	if s.maxNodes != 65_536 {
		t.Errorf("maxNodes = %d, want 65536", s.maxNodes)
	}
	if s.opts.MaxWork != 8_000_000 {
		t.Errorf("MaxWork default = %d, want 8000000", s.opts.MaxWork)
	}
	if s.history != 8 {
		t.Errorf("modelHistory = %d, want 8", s.history)
	}
	if s.stall != 4096 {
		t.Errorf("portfolioStall = %d, want 4096", s.stall)
	}
}

// TestGroupVerdictNoBudgetLaundering: a group that fails with ErrBudget
// must not park that failure in the cache, where later states would
// reuse it as a settled answer. Budget failures retry; real verdicts
// are cached.
func TestGroupVerdictNoBudgetLaundering(t *testing.T) {
	b := expr.NewBuilder()
	vs := vars(2)
	// One two-variable group the value-set propagation cannot collapse
	// (the kept-set "everything but 5" widens to top), so deciding it
	// requires real search work — which a one-assignment budget cannot
	// fund.
	c := b.Cmp(ir.OpNe, b.Bin(ir.OpXor, b.Var(vs[0]), b.Var(vs[1])), b.Const(8, 5))
	var p *Partition
	p = p.Extend(c)

	tiny := New(Options{MaxWork: 1})
	if _, _, err := tiny.SatPartition(p); !errors.Is(err, ErrBudget) {
		t.Fatalf("tiny budget: err = %v, want ErrBudget", err)
	}
	if tiny.Stats.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", tiny.Stats.Failures)
	}
	for _, g := range p.Groups() {
		if tiny.cache.peek(g.fp) != nil {
			t.Fatal("budget failure was stored as a settled group verdict")
		}
	}

	// Retried, the same query must fail again — not hit a laundered
	// verdict in the cache.
	if _, _, err := tiny.SatPartition(p); !errors.Is(err, ErrBudget) {
		t.Fatalf("retry: err = %v, want ErrBudget", err)
	}
	if tiny.Stats.Failures != 2 || tiny.Stats.CacheHits != 0 {
		t.Fatalf("retry stats = %+v, want second failure with no cache hits", tiny.Stats)
	}

	// A solver with a real budget, sharing the cache, decides the group;
	// its verdict lands in the cache.
	generous := NewWithCache(Options{}, tiny.cache)
	sat, model, err := generous.SatPartition(p)
	if err != nil || !sat {
		t.Fatalf("generous: sat=%v err=%v, want sat", sat, err)
	}
	if !satisfies([]*expr.Expr{c}, model) {
		t.Fatalf("generous model %v does not satisfy", model)
	}

	// Now the tiny solver reuses the settled verdict from the cache: no
	// search, no failure.
	searched := tiny.Stats.TapeCompiles
	sat, _, err = tiny.SatPartition(p)
	if err != nil || !sat {
		t.Fatalf("after settle: sat=%v err=%v, want sat via cache hit", sat, err)
	}
	if tiny.Stats.CacheHits != 1 || tiny.Stats.Failures != 2 || tiny.Stats.TapeCompiles != searched {
		t.Fatalf("after settle stats = %+v, want one cache hit and no new search or failure", tiny.Stats)
	}
}
