// Package symex is a KLEE-style symbolic execution engine for the IR.
// It explores programs path by path: inputs are symbolic bytes, branch
// conditions become constraints, and a constraint solver decides which
// sides of each branch are feasible. Its cost profile matches the
// paper's §2.1 analysis — time is dominated by the number of explored
// paths, the instructions interpreted per path, and solver queries —
// which is what makes the -OVERIFY speedups reproducible.
package symex

import (
	"fmt"
	"sync/atomic"

	"overify/internal/expr"
	"overify/internal/ir"
	"overify/internal/solver"
)

// SymVal is a symbolic runtime value in two words. An integer is E with
// Obj nil; a pointer is Obj with E its 64-bit element offset; null is
// the pointer whose Obj is nullObj. The zero SymVal is an unassigned
// register.
type SymVal struct {
	E   *expr.Expr
	Obj *MemObject
}

// defined reports whether v was ever assigned: every assigned value,
// integer or pointer, has an expression.
func (v SymVal) defined() bool { return v.E != nil }

// nullObj is the object every null pointer names. It has no cells, is
// read-only (so no state gives it a number), and is not a memory object
// of any state: the codec writes it as object reference 0.
var nullObj = &MemObject{Name: "null", ReadOnly: true}

// nullPtr reports whether v, read where the IR expects a pointer, is
// null. An integer in that place (only a hand-made frame can put one
// there) reads as null too, so it ends the path as a reported bug
// instead of dereferencing nothing.
func (v SymVal) nullPtr() bool { return v.Obj == nil || v.Obj == nullObj }

// pageCells is the copy-on-write granule of a memory object's cells.
const pageCells = 16

// page is one run of up to pageCells cells. own says the cells are this
// object's private copy; it means nothing while the object's page list
// is itself shared.
type page struct {
	cells []SymVal
	own   bool
}

// MemObject is what never changes about a memory object, shared by every
// state that holds it: its number, name, element type and size. A
// pointer names its object by this descriptor, so forks share pointers
// as they are. A writable object's cells are per state, in the state's
// object table under the object's number; a read-only object's cells
// are here, shared by every state and worker.
type MemObject struct {
	Name     string
	Elem     ir.Type
	Count    int64
	ReadOnly bool  // never written: its cells live in the descriptor
	num      int32 // index in a state's object table; unused when read-only

	pages []page // a read-only object's cells

	// table memoizes a read-only object's constant cells for symbolic-
	// offset loads; every state and worker shares the object, hence atomic.
	table atomic.Pointer[[]uint64]
}

// paginate cuts cells into owned pages without copying them.
func paginate(cells []SymVal) []page {
	pages := make([]page, (len(cells)+pageCells-1)/pageCells)
	for k := range pages {
		hi := min((k+1)*pageCells, len(cells))
		pages[k] = page{cells: cells[k*pageCells : hi : hi], own: true}
	}
	return pages
}

// objChunkSize is the copy-on-write granule of a state's object table:
// the first write after a fork copies the chunk list (16 bytes a chunk)
// and the chunk it lands in. Of 1, 2, 4, 8 and 16, 2 allocates least on
// deep_paths (EXPERIMENTS.md).
const objChunkSize = 2

// object is a writable memory object's per-state header: its cells.
type object struct {
	pages   []page
	shared  bool // pages is also another state's list: copy it before writing
	escaped bool // a pointer to it was returned past its frame or stored into an older object
}

// objChunk is one run of objChunkSize table entries. own says the chunk
// is this state's private copy; it means nothing while the state's chunk
// list is itself shared.
type objChunk struct {
	objs *[objChunkSize]object
	own  bool
}

// at returns the header numbered n, for reading.
func (st *State) at(n int32) *object { return &st.objs[n/objChunkSize].objs[n%objChunkSize] }

// Cell returns cell i of o as st sees it.
func (st *State) Cell(o *MemObject, i int64) SymVal {
	pages := o.pages
	if !o.ReadOnly {
		pages = st.at(o.num).pages
	}
	return pages[i/pageCells].cells[i%pageCells]
}

// writable returns the header numbered n for writing, first copying the
// chunk list if a fork shares it and then the chunk n lands in. Every
// header of a copied chunk shares its page list with the original.
func (st *State) writable(n int32) *object {
	st.ownObjs()
	c := &st.objs[n/objChunkSize]
	if !c.own {
		cp := *c.objs
		for k := range cp {
			cp[k].shared = true
		}
		c.objs, c.own = &cp, true
	}
	return &c.objs[n%objChunkSize]
}

// ownObjs copies the chunk list if a fork shares it.
func (st *State) ownObjs() {
	if st.objsShared {
		st.objs = append([]objChunk(nil), st.objs...)
		for k := range st.objs {
			st.objs[k].own = false
		}
		st.objsShared = false
	}
}

// install makes pages the cells of object number n.
func (st *State) install(n int32, pages []page, shared bool) {
	if int(n/objChunkSize) >= len(st.objs) {
		st.ownObjs()
		for int(n/objChunkSize) >= len(st.objs) {
			st.objs = append(st.objs, objChunk{objs: new([objChunkSize]object), own: true})
		}
	}
	*st.writable(n) = object{pages: pages, shared: shared}
}

// alloc numbers o as st's next object, over cells it takes ownership of.
func (st *State) alloc(o *MemObject, cells []SymVal) {
	o.num = st.nobj
	st.nobj++
	st.install(o.num, paginate(cells), false)
}

// setCell writes cell i of o, first copying what a fork shares with st:
// the table chunk, the page list, then the one page the write lands on.
func (st *State) setCell(o *MemObject, i int64, v SymVal) {
	h := st.writable(o.num)
	if h.shared {
		h.pages = append([]page(nil), h.pages...)
		for k := range h.pages {
			h.pages[k].own = false
		}
		h.shared = false
	}
	p := &h.pages[i/pageCells]
	if !p.own {
		p.cells, p.own = append([]SymVal(nil), p.cells...), true
	}
	p.cells[i%pageCells] = v
}

// escape records that writable object o is reachable from beyond the
// frame that allocated it — a pointer to it was returned, or stored into
// an older object — so no return releases its number.
func (st *State) escape(o *MemObject) {
	if !st.at(o.num).escaped {
		st.writable(o.num).escaped = true
	}
}

// release gives back the numbers a returning frame's allocas took, from
// the top down to the highest that escaped. Numbers are taken and given
// back as a stack, so an object numbered above another is younger, and
// a pointer to a released object can have been left only in the
// returning frame's registers or in a younger object's cells, which die
// with it. A released header keeps its pages until its number is taken
// again.
func (st *State) release(base int32) {
	for st.nobj > base && !st.at(st.nobj-1).escaped {
		st.nobj--
	}
}

// frameLayout is a function's register numbering, computed once per
// engine: params by Idx, then value-producing instructions in (block,
// index) order — the order the state codec has always written them in.
type frameLayout struct {
	slot    []int32  // by Instr.ID: register index + 1; 0 for void instructions
	allocas []string // one per register: an alloca's object name, "" for anything else
	id      int      // the function's index in the module: its workers' free-frame list
	cov     coverage // the function's blocks this engine has executed
}

// index is the register index of a value-producing instruction.
func (lay *frameLayout) index(in *ir.Instr) int { return int(lay.slot[in.ID]) - 1 }

func newFrameLayout(fn *ir.Function) *frameLayout {
	lay := &frameLayout{allocas: make([]string, len(fn.Params), len(fn.Params)+fn.NumInstrs()), cov: newCoverage(fn)}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if ir.SameType(in.Typ, ir.Void) {
				continue
			}
			if in.ID >= len(lay.slot) {
				lay.slot = append(lay.slot, make([]int32, in.ID+1-len(lay.slot))...)
			}
			if lay.slot[in.ID] != 0 {
				panic(fmt.Sprintf("symex: SSA id %s names two instructions in %s", in.Ref(), fn.Name))
			}
			name := ""
			if in.Op == ir.OpAlloca {
				name = fn.Name + "." + in.Ref()
			}
			lay.allocas = append(lay.allocas, name)
			lay.slot[in.ID] = int32(len(lay.allocas))
		}
	}
	return lay
}

// Frame is one activation record.
type Frame struct {
	Fn     *ir.Function
	Block  *ir.Block
	Prev   *ir.Block // predecessor block, for phi evaluation
	Idx    int       // index of the next instruction in Block
	Regs   []SymVal  // register file in layout order; the zero SymVal is "not yet assigned"
	Caller *ir.Instr // call instruction awaiting the return value
	lay    *frameLayout
	base   int32 // the state's object count on entry: the frame's allocas are numbered from here
}

// reg returns the register an instruction's result lives in.
func (f *Frame) reg(in *ir.Instr) *SymVal { return &f.Regs[f.lay.index(in)] }

// State is one execution path in progress.
type State struct {
	ID     int64
	Frames []*Frame
	// Part is the path condition as the solver's incremental
	// independence partition: a branch or check extends it in O(groups)
	// per appended constraint instead of re-partitioning the whole
	// condition per query, the group verdicts its queries decided ride
	// along, and its history lists the constraints themselves, oldest
	// first (Partition.AppendConstraints), which is what the codec
	// ships. Partitions are immutable, so forked states share one by
	// pointer.
	Part  *solver.Partition
	Forks int // how many forks led here (path depth in the fork tree)

	objs       []objChunk // object table: a writable object's header by its number
	nobj       int32      // numbers in use; the next object takes this one
	objsShared bool       // objs is also another state's list: copy it before writing
}

// top returns the active frame.
func (st *State) top() *Frame { return st.Frames[len(st.Frames)-1] }

// pop removes the top frame and returns the new top, or nil when st
// returned from its entry.
func (st *State) pop() *Frame {
	n := len(st.Frames) - 1
	st.Frames = st.Frames[:n]
	if n == 0 {
		return nil
	}
	return st.Frames[n-1]
}

// clone forks the state, copying every frame into a blank one from w,
// so each frame has exactly one holder and goes back to a worker's free
// list when its state returns from it or ends. The child shares the
// object table (both sides mark it shared and copy a chunk on first
// write), the object descriptors, read-only objects, the partition and
// all expression nodes. A pointer names a descriptor and both states
// number an object alike, so nothing is remapped.
func (st *State) clone(nextID int64, w *worker) *State {
	frames := make([]*Frame, len(st.Frames))
	for i, f := range st.Frames {
		frames[i] = w.frame(f.lay).copyOf(f)
	}
	st.objsShared = true
	return &State{
		ID:         nextID,
		Frames:     frames,
		Part:       st.Part, // immutable; shared across forks
		Forks:      st.Forks + 1,
		objs:       st.objs,
		nobj:       st.nobj,
		objsShared: true,
	}
}

// copyOf makes blank frame f a private copy of g, a frame of the same
// function, and returns it.
func (f *Frame) copyOf(g *Frame) *Frame {
	copy(f.Regs, g.Regs)
	*f = Frame{Fn: g.Fn, Block: g.Block, Prev: g.Prev, Idx: g.Idx, Regs: f.Regs, Caller: g.Caller, lay: g.lay, base: g.base}
	return f
}

// Where describes the state's current location for error messages.
func (st *State) Where() string {
	if len(st.Frames) == 0 {
		return "<done>"
	}
	f := st.top()
	return fmt.Sprintf("@%s/%s", f.Fn.Name, f.Block.Name)
}
