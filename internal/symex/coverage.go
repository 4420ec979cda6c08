package symex

import (
	"sync/atomic"

	"overify/internal/ir"
)

// coverage is one function's covered-block set: which of its basic
// blocks have had at least one instruction executed by any worker of
// one engine. It is a bitset indexed by block number, fed by exec (a
// block is covered when a state begins executing in it, not when a fork
// merely targets it). It lives in the engine's frameLayout rather than
// on ir.Block because one module serves concurrent engines.
//
// cover is lock-free: a plain load answers the common already-covered
// case, and only a first cover pays for a compare-and-swap.
type coverage []atomic.Uint64

func newCoverage(fn *ir.Function) coverage {
	return make(coverage, (fn.NumBlocks()+63)/64)
}

// cover marks b as executed and reports whether this call covered it
// first.
func (c coverage) cover(b *ir.Block) bool {
	w, bit := &c[b.Num()>>6], uint64(1)<<(b.Num()&63)
	// A CAS loop, not atomic Or: go1.24.0's amd64 Or intrinsic clobbers
	// a live register when its result is used.
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// covered reports whether b has been executed on any path.
func (c coverage) covered(b *ir.Block) bool {
	return c[b.Num()>>6].Load()&(uint64(1)<<(b.Num()&63)) != 0
}
