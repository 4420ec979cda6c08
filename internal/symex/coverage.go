package symex

import "overify/internal/ir"

// coverage is one function's covered-block set: which of its basic
// blocks have had at least one instruction executed on some path of one
// engine. It is a bitset indexed by block number, fed by exec (a block
// is covered when a state begins executing in it, not when a fork
// merely targets it). It lives in the engine's frameLayout rather than
// on ir.Block because one module serves concurrent engines.
type coverage []uint64

func newCoverage(fn *ir.Function) coverage {
	return make(coverage, (fn.NumBlocks()+63)/64)
}

// cover marks b as executed and reports whether this call covered it
// first.
func (c coverage) cover(b *ir.Block) bool {
	w, bit := &c[b.Num()>>6], uint64(1)<<(b.Num()&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// covered reports whether b has been executed on any path.
func (c coverage) covered(b *ir.Block) bool {
	return c[b.Num()>>6]&(uint64(1)<<(b.Num()&63)) != 0
}
