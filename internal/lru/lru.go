// Package lru is the bounded least-recently-used index the long-lived
// caches share, and the one Stats shape every cache layer reports. A
// Cache is not safe for concurrent use: each user guards it with the
// mutex that guards the rest of its state.
package lru

// Stats is a point-in-time snapshot of one cache layer. Bytes is what
// the layer charges its entries; it is 0 for a layer that charges none.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Evictions int64 `json:"evictions"`
}

// Cache maps keys to values in recency order and holds at most max of
// them (0 = unbounded).
type Cache[K comparable, V any] struct {
	max   int
	index map[K]*node[K, V]
	root  node[K, V] // root.next is the newest entry, root.prev the oldest
}

type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
}

// New returns an empty cache of at most limit entries (0 = unbounded).
func New[K comparable, V any](limit int) *Cache[K, V] {
	c := &Cache[K, V]{max: limit, index: make(map[K]*node[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.index) }

// Get returns k's value and makes k the newest entry.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	n, ok := c.index[k]
	if !ok {
		n = &c.root // its value is V's zero
	} else {
		c.toFront(n)
	}
	return n.val, ok
}

// Add stores v under k as the newest entry. When that takes the cache
// past its bound, the oldest entry is removed and returned with
// evicted true.
func (c *Cache[K, V]) Add(k K, v V) (oldK K, oldV V, evicted bool) {
	n, ok := c.index[k]
	if !ok {
		n = &node[K, V]{key: k}
		c.index[k] = n
	}
	n.val = v
	c.toFront(n)
	if c.max > 0 && len(c.index) > c.max {
		oldK, oldV, evicted = c.Oldest()
		c.Remove(oldK)
	}
	return oldK, oldV, evicted
}

// Remove deletes k if it is present.
func (c *Cache[K, V]) Remove(k K) {
	if n, ok := c.index[k]; ok {
		n.prev.next, n.next.prev = n.next, n.prev
		delete(c.index, k)
	}
}

// Oldest returns the least recently used entry without touching it.
func (c *Cache[K, V]) Oldest() (K, V, bool) {
	n := c.root.prev // the root itself, holding zero values, when empty
	return n.key, n.val, n != &c.root
}

// toFront makes n the newest entry, unlinking it first if it is linked.
func (c *Cache[K, V]) toFront(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next, n.next.prev = n.next, n.prev
	}
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}
