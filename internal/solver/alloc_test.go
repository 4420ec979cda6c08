package solver

import (
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

// TestSearchSteadyStateAllocs pins what a search allocates once its
// solver is warm: the things it hands out — the domains, the model, the
// cache entry, and the closures of one searchTape call — and nothing
// that scales with the tape or the search tree. A warm solver decides a
// three-variable group through a fresh cache in the same small number
// of allocations whether the group has 3 constraints or 15 (five times
// the slots), and whether the search binds a few hundred values or tens
// of thousands; and value-set propagation, run a second time over a
// tape of the same size, allocates nothing at all.
func TestSearchSteadyStateAllocs(t *testing.T) {
	const runs = 10
	shapes := []struct {
		name  string
		sum   uint64
		extra int
	}{
		{"shallow search", 60, 0},
		{"deeper search", 420, 0},
		{"more constraints and slots", 60, 12},
		{"deeper, more of both", 420, 12},
	}
	var allocs, assigns []float64
	for _, sh := range shapes {
		bld := expr.NewBuilder()
		cs := coupledGroup(bld, sh.sum, sh.extra)
		// AllocsPerRun calls once to warm up, then runs times: each call
		// decides a group nobody has decided, through an empty cache.
		groups := make([]*Group, runs+1)
		caches := make([]*Cache, runs+1)
		for i := range groups {
			g := PartitionOf(cs).Groups()
			if len(g) != 1 || len(g[0].vs.Vars()) != 3 {
				t.Fatalf("%s: want one three-variable group", sh.name)
			}
			groups[i], caches[i] = g[0], NewCache()
		}
		s := New(Options{})
		i := 0
		n := testing.AllocsPerRun(runs, func() {
			s.cache = caches[i]
			if e, err := s.solveGroup(groups[i]); err != nil || !e.sat {
				t.Fatalf("%s: entry=%v err=%v", sh.name, e, err)
			}
			i++
		})
		if s.Stats.TapeCompiles != runs+1 {
			t.Fatalf("%s: %d searches for %d calls", sh.name, s.Stats.TapeCompiles, runs+1)
		}
		allocs = append(allocs, n)
		assigns = append(assigns, float64(s.Stats.Assignments)/(runs+1))
		t.Logf("%-28s %2.0f allocs, %4d slots, %6.0f assignments a search", sh.name, n, s.Stats.TapeSlots/(runs+1), assigns[len(assigns)-1])
	}
	for i, n := range allocs {
		if n != allocs[0] || n > 12 {
			t.Errorf("%s: %v allocations a search, %s %v: want equal and at most 12", shapes[i].name, n, shapes[0].name, allocs[0])
		}
	}
	if assigns[1] < 10*assigns[0] {
		t.Errorf("the deeper search tried %.0f assignments against %.0f: the shapes no longer differ in depth", assigns[1], assigns[0])
	}

	// Propagation that does real work: basename's last-slash chain, where
	// forward sets stay finite and demands prune a variable's domain; and
	// cksum's bit loop, where most steps repeat and the stamps skip them.
	lastSlash := compileGroup(PartitionOf(lastSlashPrune(expr.NewBuilder(), vars(3))).Groups()[0])
	cksum := compileGroup(PartitionOf(cksumGroup(expr.NewBuilder())).Groups()[0])
	full := []domain{fullDomain(8), fullDomain(8), fullDomain(8)}
	doms := make([]domain, len(full))
	copy(doms, full)
	if !new(propagator).run(lastSlash, doms) || doms[0].count() != 1 {
		t.Fatalf("propagation left v0 %d values, want the one '/'", doms[0].count())
	}
	for _, tp := range []*tape{lastSlash, cksum} {
		p := new(propagator)
		if n := testing.AllocsPerRun(runs, func() {
			copy(doms, full)
			p.run(tp, doms)
		}); n != 0 {
			t.Errorf("a second propagation run over %d slots allocated %v times, want 0", len(tp.ops), n)
		}
	}
}

// TestBranchQueryAllocs pins what a branch query allocates outside the
// search. Extending a partition by a constraint that joins one of its
// groups allocates the new partition, its history node, its group list,
// the merged group and that group's constraint list — five, however
// many constraints the group holds: the key is updated, not rebuilt, and
// no id list is kept or sorted. A query whose groups all carry verdicts
// but which no remembered model satisfies allocates its model, once.
func TestBranchQueryAllocs(t *testing.T) {
	b := expr.NewBuilder()
	vs := vars(2)
	x, y := b.Var(vs[0]), b.Var(vs[1])
	var p *Partition
	for i := 0; i < 40; i++ {
		p = p.Extend(b.Cmp(ir.OpNe, x, b.Const(8, uint64(i))))
	}
	p = p.Extend(b.Cmp(ir.OpULt, y, b.Const(8, 100)))
	c := b.Cmp(ir.OpULt, x, b.Const(8, 200))
	if n := testing.AllocsPerRun(100, func() {
		if q := p.Extend(c); len(q.Groups()) != 2 || q.Len() != 42 {
			t.Fatalf("extension has %d groups, %d constraints", len(q.Groups()), q.Len())
		}
	}); n != 5 {
		t.Errorf("a single-group Extend allocated %v times, want 5", n)
	}

	// Two queries whose groups a warm solver decided, alternated on a
	// solver that shares its cache and remembers one model: each misses
	// the other's model, and the cache answers every group.
	yc := b.Cmp(ir.OpEq, y, b.Const(8, 9))
	qs := []*Partition{
		PartitionOf([]*expr.Expr{b.Cmp(ir.OpEq, x, b.Const(8, 7)), yc}),
		PartitionOf([]*expr.Expr{b.Cmp(ir.OpEq, x, b.Const(8, 8)), yc}),
	}
	warm := New(Options{})
	for _, q := range qs {
		if sat, _, err := warm.SatPartition(q); err != nil || !sat {
			t.Fatalf("sat=%v err=%v", sat, err)
		}
	}
	s := NewWithCache(Options{}, warm.cache)
	s.history = 1
	i := 0
	n := testing.AllocsPerRun(100, func() {
		sat, m, err := s.SatPartition(qs[i%2])
		if err != nil || !sat || len(m) != 2 || m.Value(vs[0]) != uint64(7+i%2) {
			t.Fatalf("query %d: sat=%v model=%v err=%v", i, sat, m, err)
		}
		i++
	})
	if s.Stats.ModelReuseHits != 0 || s.Stats.CacheHits != 2*s.Stats.Queries || s.Stats.TapeCompiles != 0 {
		t.Fatalf("not a cached-verdict reuse miss: %+v", s.Stats)
	}
	if n != 1 {
		t.Errorf("a reuse-miss query over decided groups allocated %v times, want 1 (the model)", n)
	}
}
