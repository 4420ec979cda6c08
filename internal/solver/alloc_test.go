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
			if sat, _, err := s.solveGroup(groups[i]); err != nil || !sat {
				t.Fatalf("%s: sat=%v err=%v", sh.name, sat, err)
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
	// forward sets stay finite and demands prune a variable's domain.
	bld := expr.NewBuilder()
	vs := vars(3)
	ls := lastSlashChain(bld, vs)
	cs := []*expr.Expr{
		bld.Cmp(ir.OpNe, bld.Var(vs[2]), bld.Const(8, 0)),
		bld.Bin(ir.OpXor, uge4(bld, bld.Bin(ir.OpAdd, ls, bld.Const(32, 3))), bld.Const(1, 1)),
		bld.Bin(ir.OpXor,
			bld.Cmp(ir.OpNe, bufAt(bld, vs, bld.Bin(ir.OpAdd, ls, bld.Const(32, 3))), bld.Const(8, 0)),
			bld.Const(1, 1)),
	}
	tp := compileGroup(PartitionOf(cs).Groups()[0])
	full := []domain{fullDomain(8), fullDomain(8), fullDomain(8)}
	doms := make([]domain, len(full))
	p := new(propagator)
	copy(doms, full)
	if !p.run(tp, doms) || doms[0].count() != 1 {
		t.Fatalf("propagation left v0 %d values, want the one '/'", doms[0].count())
	}
	if n := testing.AllocsPerRun(runs, func() {
		copy(doms, full)
		p.run(tp, doms)
	}); n != 0 {
		t.Errorf("a second propagation run of the same size allocated %v times, want 0", n)
	}
}
