package passes

import (
	"overify/internal/freelist"
	"overify/internal/ir"
)

// scratch is the working memory of one compile's passes: tables a pass
// fills, reads and abandons within one run on one function. A Context
// takes one from scratchPool on first use and Release returns it when
// the compile ends, so a compile refills the same tables for every pass
// and function, and the next compile starts from tables already grown
// (see package freelist for why the pool is not a sync.Pool).
// No pass holds a table across a refill of the same buffer: each pass
// and helper that fills one reads it before it or anything it calls
// fills it again.
type scratch struct {
	preds     ir.PredTable  // Context.preds
	children  ir.BlockTable // dominator-tree children (cse, mem2reg)
	frontiers ir.BlockTable // dominance frontiers (mem2reg)
	clones    ir.CloneMap   // the latest clone (inline, unswitch, unroll)

	// cse's scoped table and the log of its insertions. The table is
	// empty whenever no walk is running: a walk deletes every key it
	// inserts before returning.
	cse    map[cseKey]*ir.Instr
	cseLog []*ir.Instr

	escaped []bool     // by SSA id: an alloca whose address escapes (mem2reg)
	defs    []ir.Value // mem2reg's stack of current-definition frames
}

var scratchPool freelist.List[scratch]

// scratch returns the context's scratch, taking one from the pool on
// first use.
func (cx *Context) scratch() *scratch {
	if cx.scr == nil {
		cx.scr = scratchPool.Get()
		if cx.scr.cse == nil {
			cx.scr.cse = make(map[cseKey]*ir.Instr)
		}
	}
	return cx.scr
}

// preds refills the compile's predecessor table with f's current CFG.
// The table stays valid until the next preds call on this context.
func (cx *Context) preds(f *ir.Function) ir.PredTable {
	s := cx.scratch()
	s.preds = f.PredsInto(s.preds)
	return s.preds
}

// Release returns the context's scratch to the pool. pipeline.Optimize
// calls it when the compile ends; the context stays usable (its next
// pass takes a scratch again). Every pointer the tables hold is cleared
// first, so a pooled scratch keeps no module alive.
func (cx *Context) Release() {
	s := cx.scr
	if s == nil {
		return
	}
	cx.scr = nil
	s.preds.Clear()
	s.children.Clear()
	s.frontiers.Clear()
	s.clones.Clear()
	clear(s.cse) // empty unless a pass panicked mid-walk
	clear(s.cseLog[:cap(s.cseLog)])
	clear(s.defs[:cap(s.defs)])
	scratchPool.Put(s)
}

// byID returns buf resized to one zero entry per SSA id of f, reusing
// its array when it is large enough.
func byID[T any](buf []T, f *ir.Function) []T {
	n := f.MaxID() + 1
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
