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

	// ifconvert's deferred-fork walk: every instruction's users in CSR
	// layout by SSA id (the users of id n are users[useOff[n]:useOff[n+1]]),
	// refilled at most once per scan and emptied when the function is
	// done; the walk's marks by SSA id (epoch<<1, |1 once past a phi) and
	// its stack.
	useOff    []int32
	users     []*ir.Instr
	seen      []uint32
	walkEpoch uint32
	walk      []walkItem
}

// walkItem is one instruction on the deferred-fork walk's stack.
type walkItem struct {
	in      *ir.Instr
	pastPhi bool
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
	s.dropUses()
	scratchPool.Put(s)
}

// fillUses refills the use table with f's current instructions and
// resets the walk marks. An instruction lists one user per operand that
// names it.
func (s *scratch) fillUses(f *ir.Function) {
	n := f.MaxID() + 1
	off := sized(s.useOff, n+1)
	total := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, v := range in.Args {
				if d, ok := v.(*ir.Instr); ok && d.ID < n {
					off[d.ID+1]++
					total++
				}
			}
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	users := sized(s.users, total)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, v := range in.Args {
				if d, ok := v.(*ir.Instr); ok && d.ID < n {
					users[off[d.ID]] = in
					off[d.ID]++
				}
			}
		}
	}
	// Each start has advanced to the next list's start; shift back.
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	s.useOff, s.users = off, users
	s.seen = byID(s.seen, f)
	s.walkEpoch = 0
}

// usersOf returns in's users as of the last fillUses; an instruction
// created since has none.
func (s *scratch) usersOf(in *ir.Instr) []*ir.Instr {
	if in.ID+1 >= len(s.useOff) {
		return nil
	}
	return s.users[s.useOff[in.ID]:s.useOff[in.ID+1]]
}

// dropUses empties the use table, clearing every instruction pointer
// its arrays hold, so no function's users outlive its pass run.
func (s *scratch) dropUses() {
	clear(s.users[:cap(s.users)])
	clear(s.walk[:cap(s.walk)])
	s.useOff, s.users = s.useOff[:0], s.users[:0]
}

// byID returns buf resized to one zero entry per SSA id of f, reusing
// its array when it is large enough.
func byID[T any](buf []T, f *ir.Function) []T { return sized(buf, f.MaxID()+1) }

// sized returns buf resized to n zero entries, reusing its array when it
// is large enough.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
