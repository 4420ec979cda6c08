package solver

import (
	"sync"
	"sync/atomic"
)

// cacheShards is the number of lock stripes in a shared Cache. Power of
// two so the shard index is a mask; 64 stripes keep contention
// negligible even with dozens of workers.
const cacheShards = 64

// cacheShard is one lock stripe. Its entries are written once, before
// they are published, and handed out by pointer: a hit allocates
// nothing, and a group's carried verdict is the cache's own entry.
type cacheShard struct {
	mu sync.RWMutex
	m  map[Fingerprint]*cacheEntry
}

// Cache is a query-result cache shared between solvers: the parallel
// symbolic-execution engine gives every worker its own Solver (the
// search state is not concurrency-safe) but layers one Cache under all
// of them, so a group decided by any worker is a hit for every other.
// Keys are group fingerprints (set hashes of hash-consed expression
// ids, fingerprint.go), so a Cache belongs to the one expr.Builder that
// numbered those nodes (symex.Warm pairs the two).
//
// A Cache is safe for concurrent use. It never evicts: it lives and is
// retired with its builder, which is how a long-lived process bounds
// both (the daemon replaces its symex.Warm once either grows past its
// limit).
type Cache struct {
	shards [cacheShards]cacheShard

	hits    atomic.Int64
	misses  atomic.Int64
	entries atomic.Int64
}

// NewCache returns an empty shared cache.
func NewCache() *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].m = make(map[Fingerprint]*cacheEntry)
	}
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

// put records a decided group and returns the resident entry. First
// writer wins; a concurrent duplicate decision of the same group is
// identical anyway.
func (c *Cache) put(fp Fingerprint, e cacheEntry) *cacheEntry {
	sh := c.shard(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r, dup := sh.m[fp]; dup {
		return r
	}
	r := &e
	sh.m[fp] = r
	c.entries.Add(1)
	return r
}

// CacheStats is a point-in-time snapshot of shared-cache effectiveness.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Entries int64
}

// Snapshot returns the cache counters.
func (c *Cache) Snapshot() CacheStats {
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: c.entries.Load(),
	}
}
