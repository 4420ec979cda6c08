package solver

import (
	"sync"
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

// TestCacheSharedAcrossSolvers is the deterministic form of the
// cross-solver benefit: a group decided by one solver must be a cache
// hit for a second solver layered over the same Cache (expressions
// from one shared builder, so the group keys agree).
func TestCacheSharedAcrossSolvers(t *testing.T) {
	b := expr.NewConcurrentBuilder()
	v := &expr.Var{Name: "a", Bits: 8, Idx: 0}
	q := []*expr.Expr{b.Cmp(ir.OpEq, b.Var(v), b.Const(8, 42))}

	shared := NewCache()
	s1 := NewWithCache(Options{}, shared)
	s2 := NewWithCache(Options{}, shared)

	sat, model, err := s1.Sat(q)
	if err != nil || !sat || model.Value(v) != 42 {
		t.Fatalf("s1: sat=%v model=%v err=%v", sat, model, err)
	}
	if shared.Snapshot().Entries == 0 {
		t.Fatal("s1 decided a group but published nothing")
	}

	before := shared.Snapshot().Hits
	sat, model, err = s2.Sat(q)
	if err != nil || !sat || model.Value(v) != 42 {
		t.Fatalf("s2: sat=%v model=%v err=%v", sat, model, err)
	}
	if s2.Stats.CacheHits == 0 {
		t.Error("s2 re-searched a group s1 already decided")
	}
	if shared.Snapshot().Hits <= before {
		t.Error("s2's lookup did not hit the shared cache")
	}
}

// TestCacheUnsatShared: UNSAT verdicts are shared too (the paper's
// point that sibling paths decide each other's infeasibility).
func TestCacheUnsatShared(t *testing.T) {
	b := expr.NewConcurrentBuilder()
	v := &expr.Var{Name: "a", Bits: 8, Idx: 0}
	x := b.Var(v)
	q := []*expr.Expr{
		b.Cmp(ir.OpEq, x, b.Const(8, 1)),
		b.Cmp(ir.OpEq, x, b.Const(8, 2)),
	}
	shared := NewCache()
	s1 := NewWithCache(Options{}, shared)
	s2 := NewWithCache(Options{}, shared)
	if sat, _, err := s1.Sat(q); err != nil || sat {
		t.Fatalf("s1: sat=%v err=%v", sat, err)
	}
	if sat, _, err := s2.Sat(q); err != nil || sat {
		t.Fatalf("s2: sat=%v err=%v", sat, err)
	}
	if s2.Stats.CacheHits == 0 {
		t.Error("UNSAT verdict was not shared")
	}
}

// TestCacheConcurrentAccess hammers one Cache from many goroutines
// (mixed get/put over overlapping keys) — meaningful under -race.
func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := idKey(int64(i % 97))
				if _, ok := c.get(key); !ok {
					c.put(key, cacheEntry{sat: i%2 == 0})
				}
			}
		}(g)
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.Entries == 0 || snap.Entries > 97 {
		t.Errorf("entries = %d, want 1..97 (dup puts must not double-count)", snap.Entries)
	}
	if snap.Hits+snap.Misses != 8*500 {
		t.Errorf("hits+misses = %d, want %d", snap.Hits+snap.Misses, 8*500)
	}
}

// TestBoundedCacheStopsStoring: a bounded cache stores entries until it
// charges more than its budget, then stores none — ending at most one
// entry past the budget — while put still hands back the decided entry.
// Concurrent puts cannot take it further past.
func TestBoundedCacheStopsStoring(t *testing.T) {
	const budget = 1000 // an entry without model or snapshot charges 136
	c := NewBoundedCache(budget)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if e := c.put(idKey(int64(g*50+i)), cacheEntry{sat: true}); e == nil || !e.sat {
					t.Errorf("put returned %v, want the decided entry", e)
				}
			}
		}(g)
	}
	wg.Wait()
	if snap := c.Snapshot(); snap.Entries != 8 || snap.Bytes != 8*136 {
		t.Errorf("bounded cache holds %d entries, %d bytes; want 8, %d (one entry past %d)", snap.Entries, snap.Bytes, 8*136, budget)
	}
	if NewCache().budget != 0 {
		t.Error("NewCache is bounded")
	}
}
