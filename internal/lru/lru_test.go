package lru

import (
	"reflect"
	"testing"
)

// order lists c's keys newest first. It drains c through Oldest and
// Remove, then adds the entries back oldest first, which restores c.
func order(c *Cache[int, string]) []int {
	var keys []int
	var vals []string
	for c.Len() > 0 {
		k, v, _ := c.Oldest()
		c.Remove(k)
		keys = append([]int{k}, keys...)
		vals = append([]string{v}, vals...)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		c.Add(keys[i], vals[i])
	}
	return keys
}

func TestEvictionOrder(t *testing.T) {
	c := New[int, string](3)
	for k := 1; k <= 3; k++ {
		if _, _, ev := c.Add(k, "v"); ev {
			t.Fatalf("Add(%d) evicted below the bound", k)
		}
	}
	for k := 4; k <= 6; k++ {
		oldK, oldV, ev := c.Add(k, "v")
		if !ev || oldK != k-3 || oldV != "v" {
			t.Fatalf("Add(%d) evicted (%d, %q, %v), want (%d, \"v\", true)", k, oldK, oldV, ev, k-3)
		}
	}
	if got, want := order(c), []int{6, 5, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

func TestGetMovesToFront(t *testing.T) {
	c := New[int, string](3)
	c.Add(1, "a")
	c.Add(2, "b")
	c.Add(3, "c")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if _, ok := c.Get(9); ok {
		t.Fatal("Get of an absent key hit")
	}
	if oldK, _, ev := c.Add(4, "d"); !ev || oldK != 2 {
		t.Fatalf("Add(4) evicted %d (%v), want 2: Get(1) did not refresh 1", oldK, ev)
	}
	// Adding a present key replaces its value and refreshes it without
	// evicting.
	if _, _, ev := c.Add(3, "C"); ev {
		t.Fatal("re-adding a present key evicted")
	}
	if got, want := order(c), []int{3, 4, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
	if v, _ := c.Get(3); v != "C" {
		t.Errorf("Get(3) = %q after re-adding it as \"C\"", v)
	}
}

func TestRemoveAndOldest(t *testing.T) {
	c := New[int, string](0)
	if _, _, ok := c.Oldest(); ok {
		t.Fatal("Oldest of an empty cache reported an entry")
	}
	c.Add(1, "a")
	c.Add(2, "b")
	c.Add(3, "c")
	if k, v, ok := c.Oldest(); !ok || k != 1 || v != "a" {
		t.Fatalf("Oldest = (%d, %q, %v), want (1, \"a\", true)", k, v, ok)
	}
	if k, _, _ := c.Oldest(); k != 1 {
		t.Fatal("Oldest touched the entry it returned")
	}
	c.Remove(1)
	c.Remove(1) // absent: a no-op
	if _, ok := c.Get(1); ok || c.Len() != 2 {
		t.Fatalf("after Remove(1): Get(1) hit %v, Len %d; want a miss and 2", ok, c.Len())
	}
	if k, _, _ := c.Oldest(); k != 2 {
		t.Errorf("Oldest = %d after removing 1, want 2", k)
	}
	c.Remove(3)
	c.Remove(2)
	if _, _, ok := c.Oldest(); ok || c.Len() != 0 {
		t.Errorf("cache not empty after removing every entry (Len %d)", c.Len())
	}
}

func TestLenAfterChurn(t *testing.T) {
	const bound = 8
	c := New[int, string](bound)
	evicted := 0
	for i := 0; i < 1000; i++ {
		k := (i * 7919) % 37
		switch i % 5 {
		case 0:
			c.Remove(k)
		case 1:
			c.Get(k)
		default:
			if _, _, ev := c.Add(k, "v"); ev {
				evicted++
			}
		}
		if c.Len() > bound {
			t.Fatalf("step %d: Len %d past the bound %d", i, c.Len(), bound)
		}
	}
	if evicted == 0 || c.Len() != bound {
		t.Errorf("after churn: %d evictions, Len %d; want some and %d", evicted, c.Len(), bound)
	}
	// An unbounded cache never evicts.
	u := New[int, string](0)
	for i := 0; i < 100; i++ {
		if _, _, ev := u.Add(i, "v"); ev {
			t.Fatalf("unbounded cache evicted at %d", i)
		}
	}
	if u.Len() != 100 {
		t.Errorf("unbounded Len %d, want 100", u.Len())
	}
}
