package solver

import (
	"sync"
	"sync/atomic"
)

// cacheShards is the number of lock stripes in a shared Cache. Power of
// two so the shard index is a mask; 64 stripes keep contention
// negligible even with dozens of workers.
const cacheShards = 64

// cacheSlot wraps a resident entry with its clock reference bit. The
// bit is set atomically on every hit and gives the entry a second
// chance when the eviction hand passes it. The entry is written once,
// before the slot is published, and handed out by pointer: a hit
// allocates nothing, and a group's carried verdict is the cache's own
// entry.
type cacheSlot struct {
	e    cacheEntry
	used atomic.Bool
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[Fingerprint]*cacheSlot

	// ring is the shard's insertion-ordered clock queue: hand indexes
	// the next candidate; a swept entry with its used bit set is given
	// a second chance (bit cleared, re-enqueued), otherwise it is
	// evicted. The prefix before hand is compacted away periodically.
	// An unbounded cache never sweeps, so it keeps no ring at all.
	ring []Fingerprint
	hand int
}

// Cache is a query-result cache shared between solvers: the parallel
// symbolic-execution engine gives every worker its own Solver (the
// search state is not concurrency-safe) but layers one Cache under all
// of them, so a group decided by any worker is a hit for every other.
// Keys are group fingerprints (set hashes of hash-consed expression
// ids, fingerprint.go), so a Cache belongs to the one expr.Builder that
// numbered those nodes (symex.Warm pairs the two).
//
// A Cache is safe for concurrent use.
//
// A bounded cache (NewCacheWithCap) evicts cold entries once a stripe
// exceeds its share of the cap, using a second-chance clock over
// stripe-local rings: recently hit entries survive the sweep, untouched
// ones leave. Evicting an entry never changes a verdict — the group is
// simply re-decided (deterministically) on next miss.
type Cache struct {
	shards   [cacheShards]cacheShard
	shardCap int // max entries per stripe; 0 = unbounded

	hits      atomic.Int64
	misses    atomic.Int64
	entries   atomic.Int64
	evictions atomic.Int64
}

// NewCache returns an empty unbounded shared cache.
func NewCache() *Cache {
	return NewCacheWithCap(0)
}

// NewCacheWithCap returns an empty shared cache holding at most
// maxEntries decided groups (0 = unbounded). The cap is apportioned
// across lock stripes, so the effective bound is maxEntries rounded up
// to a multiple of the stripe count.
func NewCacheWithCap(maxEntries int) *Cache {
	c := &Cache{}
	if maxEntries > 0 {
		c.shardCap = (maxEntries + cacheShards - 1) / cacheShards
		if c.shardCap < 1 {
			c.shardCap = 1
		}
	}
	for i := range c.shards {
		c.shards[i].m = make(map[Fingerprint]*cacheSlot)
	}
	return c
}

// Capacity returns the total entry cap (0 = unbounded).
func (c *Cache) Capacity() int {
	return c.shardCap * cacheShards
}

// shardIdx maps a fingerprint onto its lock stripe. The fingerprint is
// already uniformly mixed, so the low bits are as good as a hash.
func shardIdx(fp Fingerprint) uint32 {
	return uint32(fp.lo) & (cacheShards - 1)
}

func (c *Cache) shard(fp Fingerprint) *cacheShard {
	return &c.shards[shardIdx(fp)]
}

// slot returns the resident slot under fp, or nil.
func (c *Cache) slot(fp Fingerprint) *cacheSlot {
	sh := c.shard(fp)
	sh.mu.RLock()
	s := sh.m[fp]
	sh.mu.RUnlock()
	return s
}

// get looks up a previously decided group. The entry returned is the
// resident one, shared and never written again.
func (c *Cache) get(fp Fingerprint) (*cacheEntry, bool) {
	s := c.slot(fp)
	if s == nil {
		c.misses.Add(1)
		return nil, false
	}
	s.used.Store(true)
	c.hits.Add(1)
	return &s.e, true
}

// peek is get for a reader that is not deciding the group under fp — a
// search looking for a carried set among a group's prefixes: it counts
// neither a hit nor a miss, so those stay one per group looked up to be
// decided, and it leaves the reference bit alone.
func (c *Cache) peek(fp Fingerprint) *cacheEntry {
	if s := c.slot(fp); s != nil {
		return &s.e
	}
	return nil
}

// put records a decided group and returns the resident entry. First
// writer wins; a concurrent duplicate decision of the same group is
// identical anyway. In a bounded cache the insert may evict the stripe's
// coldest entries.
func (c *Cache) put(fp Fingerprint, e cacheEntry) *cacheEntry {
	sh := c.shard(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, dup := sh.m[fp]; dup {
		return &s.e
	}
	s := &cacheSlot{e: e}
	sh.m[fp] = s
	c.entries.Add(1)
	if c.shardCap > 0 {
		sh.ring = append(sh.ring, fp)
		c.evictLocked(sh)
	}
	return &s.e
}

// evictLocked runs the clock hand until the stripe fits its cap. Each
// resident candidate with its reference bit set gets a second chance
// (bit cleared, moved to the back of the ring); the first cold one is
// evicted. Terminates because every sweep either evicts or clears a
// bit, and a full circle of cleared bits makes the next pass evict.
func (c *Cache) evictLocked(sh *cacheShard) {
	for len(sh.m) > c.shardCap {
		if sh.hand >= len(sh.ring) {
			// Fully swept: compact the consumed prefix and restart.
			sh.ring = append(sh.ring[:0], sh.ring[sh.hand:]...)
			sh.hand = 0
			continue
		}
		fp := sh.ring[sh.hand]
		sh.hand++
		s, ok := sh.m[fp]
		if !ok {
			continue // already evicted under an earlier hand position
		}
		if s.used.Load() {
			s.used.Store(false)
			sh.ring = append(sh.ring, fp)
			continue
		}
		delete(sh.m, fp)
		c.entries.Add(-1)
		c.evictions.Add(1)
	}
	// Keep the ring from accumulating a long consumed prefix.
	if sh.hand > len(sh.ring)/2 {
		sh.ring = append(sh.ring[:0], sh.ring[sh.hand:]...)
		sh.hand = 0
	}
}

// CacheStats is a point-in-time snapshot of shared-cache effectiveness.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Entries   int64
	Evictions int64
	Capacity  int // 0 = unbounded
}

// Snapshot returns the cache counters.
func (c *Cache) Snapshot() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Entries:   c.entries.Load(),
		Evictions: c.evictions.Load(),
		Capacity:  c.Capacity(),
	}
}
