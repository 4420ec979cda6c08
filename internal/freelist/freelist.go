// Package freelist keeps values for reuse: the compiler's scratch
// tables, which a compile refills instead of allocating again, and a
// released solver's search storage, which the next solver refills.
//
// A List is a plain mutex-guarded stack rather than a sync.Pool. A
// sync.Pool drops what it holds at every collection (and at random
// under the race detector), and a dropped table is allocated and grown
// again by the next compile, so what a compile allocates would depend
// on when the collector last ran. A List holds at most one value per
// user that ever held one at once; a user clears the pointers a value
// holds before putting it back, so a listed value keeps no module
// alive.
package freelist

import "sync"

// List is a free list of *T. The zero value is empty and ready to use.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns a listed value, or a new zero T when none is listed.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put lists x for a later Get. The caller must not use x afterwards.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
