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
// read-only (so forks share it and never copy it), and is not a memory
// object of any state: the codec writes it as object reference 0.
var nullObj = &MemObject{objInfo: &objInfo{Name: "null", ReadOnly: true}}

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

// objInfo is what never changes about a memory object, shared by every
// fork of it: the header a fork copies is only the page list and the
// forwarding stamp.
type objInfo struct {
	Name     string
	Elem     ir.Type
	Count    int64
	ReadOnly bool // never written: shared across states without cloning

	// table memoizes a read-only object's constant cells for symbolic-
	// offset loads; every state and worker shares the object, hence atomic.
	table atomic.Pointer[[]uint64]
}

// MemObject is a memory object whose cells hold symbolic values. The
// header is per state — pointer comparison and reachability work on
// header identity — while the descriptor is shared by all forks and the
// cells of an integer-element object are shared page by page until one
// side writes.
type MemObject struct {
	*objInfo
	pages []page

	// fwd is this object's copy in the state forked as fwdID. The state
	// that owns the object is held by one worker at a time, so clone
	// stamps it unsynchronized; read-only objects are never forwarded.
	fwd    *MemObject
	fwdID  int64
	shared bool // pages is also another state's list: copy it before writing
}

// newObject builds an object over cells, which it takes ownership of.
func newObject(name string, elem ir.Type, readOnly bool, cells []SymVal) *MemObject {
	info := &objInfo{Name: name, Elem: elem, Count: int64(len(cells)), ReadOnly: readOnly}
	return &MemObject{objInfo: info, pages: paginate(cells)}
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

// Cell returns cell i.
func (o *MemObject) Cell(i int64) SymVal { return o.pages[i/pageCells].cells[i%pageCells] }

// setCell writes cell i, first copying the page list if a fork shares
// it and then the one page the write lands on.
func (o *MemObject) setCell(i int64, v SymVal) {
	if o.shared {
		o.pages = append([]page(nil), o.pages...)
		for k := range o.pages {
			o.pages[k].own = false
		}
		o.shared = false
	}
	p := &o.pages[i/pageCells]
	if !p.own {
		p.cells, p.own = append([]SymVal(nil), p.cells...), true
	}
	p.cells[i%pageCells] = v
}

// forkTo returns o's counterpart in the state being forked as id,
// creating it on first sight. Integer cells are shared with the copy;
// pointer cells name per-state objects, so a pointer-holding object is
// copied eagerly with its cells remapped.
func (o *MemObject) forkTo(id int64) *MemObject {
	if o == nil || o.ReadOnly {
		return o
	}
	if o.fwd != nil && o.fwdID == id {
		return o.fwd
	}
	n := &MemObject{objInfo: o.objInfo}
	o.fwd, o.fwdID = n, id
	if _, ptrs := o.Elem.(ir.PtrType); !ptrs {
		o.shared, n.shared, n.pages = true, true, o.pages
		return n
	}
	cells := make([]SymVal, 0, o.Count)
	for _, p := range o.pages {
		for _, c := range p.cells {
			c.Obj = c.Obj.forkTo(id)
			cells = append(cells, c)
		}
	}
	n.pages = paginate(cells)
	return n
}

// frameLayout is a function's register numbering, computed once per
// engine: params by Idx, then value-producing instructions in (block,
// index) order — the order the state codec has always written them in.
type frameLayout struct {
	slot    []int32  // by Instr.ID: register index + 1; 0 for void instructions
	allocas []string // one per register: an alloca's object name, "" for anything else
}

// index is the register index of a value-producing instruction.
func (lay *frameLayout) index(in *ir.Instr) int { return int(lay.slot[in.ID]) - 1 }

func newFrameLayout(fn *ir.Function) *frameLayout {
	lay := &frameLayout{allocas: make([]string, len(fn.Params), len(fn.Params)+fn.NumInstrs())}
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
}

// reg returns the register an instruction's result lives in.
func (f *Frame) reg(in *ir.Instr) *SymVal { return &f.Regs[f.lay.index(in)] }

// State is one execution path in progress.
type State struct {
	ID     int64
	Frames []*Frame
	PC     []*expr.Expr // path constraints (conjunction)
	// Part is the incremental independence partition of PC, kept in
	// lock step by addPC: the solver extends it in O(groups) per
	// appended constraint instead of re-partitioning the whole
	// condition per query, and decided group verdicts ride along.
	// Partitions are immutable, so forked states share one by pointer.
	Part    *solver.Partition
	Globals map[*ir.Global]*MemObject
	Forks   int // how many forks led here (path depth in the fork tree)
}

// top returns the active frame.
func (st *State) top() *Frame { return st.Frames[len(st.Frames)-1] }

// addPC appends a constraint to the path condition, extending the
// carried partition.
func (st *State) addPC(c *expr.Expr) {
	if c.IsTrue() {
		return
	}
	st.PC = append(st.PC, c)
	st.Part = st.Part.Extend(c)
}

// addPCPart appends a constraint whose extended partition the caller
// already computed (the condBr sibling queries), so the extension —
// and the group verdicts it was decided with — is reused instead of
// recomputed.
func (st *State) addPCPart(c *expr.Expr, p *solver.Partition) {
	if c.IsTrue() {
		return
	}
	st.PC = append(st.PC, c)
	st.Part = p
}

// clone forks the state: the child gets its own object headers (for
// every object still reachable from a global, a register or a pointer
// cell), register files and path condition; object descriptors, integer
// cells, read-only objects, the partition and all expression nodes are
// shared.
func (st *State) clone(nextID int64) *State {
	ns := &State{
		ID:      nextID,
		PC:      append([]*expr.Expr(nil), st.PC...),
		Part:    st.Part, // immutable; shared across forks
		Globals: make(map[*ir.Global]*MemObject, len(st.Globals)),
		Frames:  make([]*Frame, len(st.Frames)),
		Forks:   st.Forks + 1,
	}
	for g, o := range st.Globals {
		ns.Globals[g] = o.forkTo(nextID)
	}
	for i, f := range st.Frames {
		nf := *f
		nf.Regs = append([]SymVal(nil), f.Regs...)
		for j := range nf.Regs {
			if o := nf.Regs[j].Obj; o != nil {
				nf.Regs[j].Obj = o.forkTo(nextID)
			}
		}
		ns.Frames[i] = &nf
	}
	return ns
}

// Where describes the state's current location for error messages.
func (st *State) Where() string {
	if len(st.Frames) == 0 {
		return "<done>"
	}
	f := st.top()
	return fmt.Sprintf("@%s/%s", f.Fn.Name, f.Block.Name)
}
