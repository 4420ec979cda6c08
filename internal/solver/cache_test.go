package solver

import (
	"sync"
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

// TestCacheSharedAcrossSolvers is the deterministic form of the
// cross-worker benefit: a group decided by one solver must be a cache
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

// TestCacheUnboundedKeepsNoRing: the eviction ring exists for the
// clock sweep, and an unbounded cache never sweeps — it must not keep a
// second copy of every key it holds.
func TestCacheUnboundedKeepsNoRing(t *testing.T) {
	c := NewCache()
	const n = 4096
	for i := 0; i < n; i++ {
		c.put(idKey(int64(i)), cacheEntry{sat: true})
	}
	if got := c.Snapshot().Entries; got != n {
		t.Errorf("Entries = %d, want %d", got, n)
	}
	for i := range c.shards {
		if l := len(c.shards[i].ring); l != 0 {
			t.Errorf("stripe %d: unbounded cache grew a %d-key eviction ring", i, l)
		}
	}
}

// TestCacheBoundedEviction pins the clock eviction: a stripe never
// holds more than its share of the cap, untouched entries leave first,
// and a recently hit entry survives the sweep (second chance).
func TestCacheBoundedEviction(t *testing.T) {
	c := NewCacheWithCap(cacheShards) // one entry per stripe
	if c.Capacity() != cacheShards {
		t.Fatalf("Capacity = %d, want %d", c.Capacity(), cacheShards)
	}
	// Drive many fingerprints into one stripe (same low bits).
	fp := func(i int) Fingerprint {
		return Fingerprint{hi: uint64(i), lo: uint64(i) << 32} // lo&63 == 0: all stripe 0
	}
	for i := 0; i < 10; i++ {
		c.put(fp(i), cacheEntry{sat: true})
	}
	snap := c.Snapshot()
	if snap.Entries != 1 {
		t.Errorf("stripe holds %d entries, cap 1", snap.Entries)
	}
	if snap.Evictions != 9 {
		t.Errorf("Evictions = %d, want 9", snap.Evictions)
	}
	// The survivor is the last inserted; its verdict must be intact.
	if _, ok := c.get(fp(9)); !ok {
		t.Error("most recent entry was evicted")
	}
}

// TestCacheSecondChance: with room for two entries per stripe, hitting
// an old entry right before an insert-driven sweep keeps it resident
// while the cold one leaves.
func TestCacheSecondChance(t *testing.T) {
	c := NewCacheWithCap(2 * cacheShards)
	fp := func(i int) Fingerprint {
		return Fingerprint{hi: uint64(i), lo: uint64(i) << 32}
	}
	c.put(fp(0), cacheEntry{sat: true})
	c.put(fp(1), cacheEntry{sat: false})
	// Touch 0 so the clock spares it; 1 stays cold.
	if _, ok := c.get(fp(0)); !ok {
		t.Fatal("resident entry missed")
	}
	c.put(fp(2), cacheEntry{sat: true}) // over cap: sweep runs
	if _, ok := c.shards[0].m[fp(0)]; !ok {
		t.Error("hit entry was evicted despite its reference bit")
	}
	if _, ok := c.shards[0].m[fp(1)]; ok {
		t.Error("cold entry survived the sweep")
	}
	if _, ok := c.shards[0].m[fp(2)]; !ok {
		t.Error("inserted entry missing after its own sweep")
	}
}

// TestCacheBoundedConcurrent hammers a tiny bounded cache from many
// goroutines (run under -race): the bound must hold and every hit must
// return the entry that was stored for that key.
func TestCacheBoundedConcurrent(t *testing.T) {
	c := NewCacheWithCap(cacheShards * 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				fp := Fingerprint{hi: uint64(i % 97), lo: uint64(g*1000 + i)}
				want := (fp.hi+fp.lo)%2 == 0
				if e, ok := c.get(fp); ok && e.sat != want {
					t.Errorf("hit returned wrong verdict for %v", fp)
					return
				}
				c.put(fp, cacheEntry{sat: want})
			}
		}(g)
	}
	wg.Wait()
	snap := c.Snapshot()
	var resident int64
	for i := range c.shards {
		c.shards[i].mu.RLock()
		resident += int64(len(c.shards[i].m))
		c.shards[i].mu.RUnlock()
	}
	if resident != snap.Entries {
		t.Errorf("entries counter %d != resident %d", snap.Entries, resident)
	}
	for i := range c.shards {
		if n := len(c.shards[i].m); n > c.shardCap {
			t.Errorf("stripe %d holds %d entries, cap %d", i, n, c.shardCap)
		}
	}
}
