package solver

import (
	"sync"
	"sync/atomic"

	"overify/internal/lru"
)

// cacheShards is the number of lock stripes in a shared Cache. Power of
// two so the shard index is a mask; 64 stripes keep contention
// negligible even with dozens of concurrent jobs.
const cacheShards = 64

// cacheShard is one lock stripe. Its entries are written once, before
// they are published, and handed out by pointer: a hit allocates
// nothing.
type cacheShard struct {
	mu sync.RWMutex
	m  map[Fingerprint]*cacheEntry
}

// Cache is a query-result cache shared between solvers: every Solver
// keeps its own search state (it is not concurrency-safe) but layers
// over one Cache, so a group one solver decided is a hit for the
// others — a run's Split solver and its worker's, and a daemon's
// concurrent jobs of one warm generation. Keys are group fingerprints
// (set hashes of hash-consed expression ids, fingerprint.go), so a
// Cache belongs to the one expr.Builder that numbered those nodes
// (symex.Warm pairs the two).
//
// A Cache is safe for concurrent use. It never evicts: it lives and is
// retired with its builder, which is how a long-lived process bounds
// both (the daemon replaces its symex.Warm once the builder's nodes or
// the bytes this cache charges pass their limit). Each resident entry
// is charged entryBytes. A cache from NewBoundedCache stops storing
// new entries once it charges more than its budget, so it ends at most
// one entry past it; a query whose group is not stored still gets its
// verdict.
type Cache struct {
	shards [cacheShards]cacheShard

	hits    atomic.Int64
	misses  atomic.Int64
	entries atomic.Int64
	bytes   atomic.Int64

	budget int64 // bytes past which no new entry is stored; 0 = unbounded
}

// entryBytes is what a resident entry holds of the heap: the cacheEntry
// allocation (an 88-byte struct in a 96-byte size class), 16 bytes a
// model binding, a byte a propagation-snapshot byte, and 40 bytes of
// its shard's map (a 16-byte fingerprint, an 8-byte pointer and a
// control byte a slot, at the two-thirds fill a doubling table
// averages).
func entryBytes(e *cacheEntry) int64 {
	return 96 + 16*int64(cap(e.model)) + int64(cap(e.prop)) + 40
}

// NewCache returns an empty shared cache.
func NewCache() *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].m = make(map[Fingerprint]*cacheEntry)
	}
	return c
}

// NewBoundedCache returns an empty shared cache that stops storing new
// entries once it charges more than budget bytes.
func NewBoundedCache(budget int64) *Cache {
	c := NewCache()
	c.budget = budget
	return c
}

// shardIdx maps a fingerprint onto its lock stripe. The fingerprint is
// already uniformly mixed, so the low bits are as good as a hash.
func shardIdx(fp Fingerprint) uint32 {
	return uint32(fp.lo) & (cacheShards - 1)
}

func (c *Cache) shard(fp Fingerprint) *cacheShard {
	return &c.shards[shardIdx(fp)]
}

// get looks up a previously decided group. The entry returned is the
// resident one, shared and never written again.
func (c *Cache) get(fp Fingerprint) (*cacheEntry, bool) {
	e := c.peek(fp)
	if e == nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// peek is get for a reader that is not deciding the group under fp — a
// search looking for a carried set among a group's prefixes: it counts
// neither a hit nor a miss, so those stay one per group looked up to be
// decided.
func (c *Cache) peek(fp Fingerprint) *cacheEntry {
	sh := c.shard(fp)
	sh.mu.RLock()
	e := sh.m[fp]
	sh.mu.RUnlock()
	return e
}

// put records a decided group and returns the resident entry, or, when
// a bounded cache is past its budget, the entry unstored. First writer
// wins; a concurrent duplicate decision of the same group is identical
// anyway.
func (c *Cache) put(fp Fingerprint, e cacheEntry) *cacheEntry {
	sh := c.shard(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r, dup := sh.m[fp]; dup {
		return r
	}
	r := &e
	if !c.charge(entryBytes(r)) {
		return r
	}
	sh.m[fp] = r
	c.entries.Add(1)
	return r
}

// charge adds n to the bytes charged unless the cache is bounded and
// already past its budget. The compare-and-swap lets only one entry,
// across all shards, take the charge past the budget.
func (c *Cache) charge(n int64) bool {
	if c.budget == 0 {
		c.bytes.Add(n)
		return true
	}
	for {
		b := c.bytes.Load()
		if b > c.budget {
			return false
		}
		if c.bytes.CompareAndSwap(b, b+n) {
			return true
		}
	}
}

// Snapshot returns the cache counters. Evictions is always 0.
func (c *Cache) Snapshot() lru.Stats {
	return lru.Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: c.entries.Load(),
		Bytes:   c.bytes.Load(),
	}
}
