package ir

import (
	"fmt"
	"strconv"
)

// Block is a basic block: a straight-line sequence of instructions ending
// in exactly one terminator.
type Block struct {
	Name   string
	Fn     *Function
	Instrs []*Instr

	// num is the block's number within Fn, handed out by NewBlock and
	// AdoptBlock (the only ways a block joins a function) and never
	// changed. Numbers start at 1 and are sparse once blocks are
	// removed; 0 marks a block no function numbered. The CFG tables
	// (PredTable, DomTree, PostDomTree) are slices indexed by it.
	num int32
}

// Num is the block's number within its function (see num).
func (b *Block) Num() int { return int(b.num) }

// Term returns the block's terminator, or nil if the block is still open.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.IsTerminator() {
		return last
	}
	return nil
}

// Succs returns the successor blocks (empty for ret/unreachable).
func (b *Block) Succs() []*Block {
	if t := b.Term(); t != nil {
		return t.Succs
	}
	return nil
}

// Append adds an instruction at the end of the block and claims ownership.
func (b *Block) Append(in *Instr) *Instr {
	in.Blk = b
	if in.ID == 0 && b.Fn != nil {
		b.Fn.nextID++
		in.ID = b.Fn.nextID
	}
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertBefore inserts in ahead of pos within the block. pos must be in
// the block.
func (b *Block) InsertBefore(in *Instr, pos *Instr) {
	in.Blk = b
	if in.ID == 0 && b.Fn != nil {
		b.Fn.nextID++
		in.ID = b.Fn.nextID
	}
	for i, x := range b.Instrs {
		if x == pos {
			b.Instrs = append(b.Instrs, nil)
			copy(b.Instrs[i+1:], b.Instrs[i:])
			b.Instrs[i] = in
			return
		}
	}
	panic("ir: InsertBefore: position not in block")
}

// Remove deletes in from the block. It does not fix up uses.
func (b *Block) Remove(in *Instr) {
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			in.Blk = nil
			return
		}
	}
}

// Phis returns the block's leading phi instructions. The result is the
// phi prefix of b.Instrs itself, capped at its length, so it costs no
// allocation and an append to it cannot write into the block. It is
// read-only: a caller that removes or inserts phis while ranging over
// it must range over a copy.
func (b *Block) Phis() []*Instr {
	k := b.FirstNonPhi()
	return b.Instrs[:k:k]
}

// FirstNonPhi returns the index of the first non-phi instruction.
func (b *Block) FirstNonPhi() int {
	for i, in := range b.Instrs {
		if in.Op != OpPhi {
			return i
		}
	}
	return len(b.Instrs)
}

// Function is a MiniC function lowered to IR. Blocks[0] is the entry block.
type Function struct {
	Name   string
	Sig    FuncType
	Params []*Param
	Blocks []*Block
	Mod    *Module

	nextID    int   // SSA register counter
	nextBlock int32 // block name and number counter
}

// NewFunction creates an empty function with the given signature. Parameter
// names default to p0, p1, ... if names is short.
func NewFunction(name string, sig FuncType, names ...string) *Function {
	f := &Function{Name: name, Sig: sig}
	for i, pt := range sig.Params {
		pn := fmt.Sprintf("p%d", i)
		if i < len(names) && names[i] != "" {
			pn = names[i]
		}
		f.Params = append(f.Params, &Param{Nam: pn, Typ: pt, Idx: i})
	}
	return f
}

// Entry returns the entry block (nil for declarations).
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock creates a block named after hint (made unique) and appends it.
func (f *Function) NewBlock(hint string) *Block {
	if hint == "" {
		hint = "bb"
	}
	f.nextBlock++
	b := &Block{Name: hint + strconv.Itoa(int(f.nextBlock)), Fn: f, num: f.nextBlock}
	f.Blocks = append(f.Blocks, b)
	return b
}

// AdoptBlock appends an externally built block (used by cloning) and gives
// it a fresh unique name and number.
func (f *Function) AdoptBlock(b *Block) {
	f.nextBlock++
	b.Name = b.Name + "." + strconv.Itoa(int(f.nextBlock))
	b.Fn = f
	b.num = f.nextBlock
	f.Blocks = append(f.Blocks, b)
}

// RemoveBlock deletes b from the function. It does not fix up edges.
func (f *Function) RemoveBlock(b *Block) {
	for i, x := range f.Blocks {
		if x == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			return
		}
	}
}

// RemoveBlocks deletes every block in dead from the function in one
// pass, keeping the order of the rest. Like RemoveBlock it does not fix
// up edges.
func (f *Function) RemoveBlocks(dead []*Block) {
	if len(dead) == 0 {
		return
	}
	gone := make([]bool, f.NumBlocks())
	for _, b := range dead {
		if b.Fn == f {
			gone[b.num] = true
		}
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if !gone[b.num] {
			kept = append(kept, b)
		}
	}
	clear(f.Blocks[len(kept):])
	f.Blocks = kept
}

// ClaimID assigns a fresh SSA id to in (used when building instructions
// outside a block, e.g. during cloning).
func (f *Function) ClaimID(in *Instr) {
	f.nextID++
	in.ID = f.nextID
}

// MaxID returns the largest SSA id handed out in f so far; every
// instruction of f has an id in [1, MaxID()].
func (f *Function) MaxID() int { return f.nextID }

// NumBlocks bounds the block numbers of f: every block f numbered so far
// has a number below it.
func (f *Function) NumBlocks() int { return int(f.nextBlock) + 1 }

// BlockTable maps each block of one function to a list of blocks, in
// CSR layout: the list of the block numbered n is flat[off[n]:off[n+1]].
// It costs two allocations however many blocks there are, where a map
// from block to list cost one per entry and per list. A block numbered
// after the table was built has no entry.
type BlockTable struct {
	off  []int32
	flat []*Block
}

// PredTable is a function's predecessor lists at the moment Preds built
// them, each in f.Blocks order with one entry per edge. Like the map it
// replaced it is a snapshot: a CFG edit does not update it, and a block
// created afterwards has no predecessors in it.
type PredTable = BlockTable

// Of returns b's list. The slice is capped at its length, so a caller's
// append cannot write into a neighbour's list.
func (t BlockTable) Of(b *Block) []*Block {
	n := int(b.num)
	if n+1 >= len(t.off) {
		return nil
	}
	lo, hi := t.off[n], t.off[n+1]
	if lo == hi {
		return nil
	}
	return t.flat[lo:hi:hi]
}

// blockPair is one entry of a BlockTable under construction: to joins
// the list of from.
type blockPair struct{ from, to *Block }

// tableOf lays pairs out as a BlockTable over block numbers below n,
// keeping each list in the order its pairs were given, in t's arrays
// when they are large enough.
func tableOf(t BlockTable, n int, pairs []blockPair) BlockTable {
	off := refill(t.off, n+1)
	for _, p := range pairs {
		off[p.from.num+1]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	flat := resize(t.flat, len(pairs))
	for _, p := range pairs {
		flat[off[p.from.num]] = p.to
		off[p.from.num]++
	}
	// Each start has advanced to the next list's start; shift back.
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	return BlockTable{off: off, flat: flat}
}

// Clear drops every block pointer t's arrays hold, to their capacity,
// so a table kept for refilling keeps no function's blocks alive. t
// stays a valid refill buffer.
func (t BlockTable) Clear() { clear(t.flat[:cap(t.flat)]) }

// Preds returns the predecessor table of the current CFG.
func (f *Function) Preds() PredTable { return f.PredsInto(PredTable{}) }

// PredsInto is Preds refilling t: the result reuses t's arrays when
// they are large enough, so a caller that recomputes the table in a
// loop allocates only when the function outgrows them. The result
// shares t's arrays, so a table read after a refill of the same buffer
// reads the new CFG's lists: no caller may hold a table across one. It
// walks the edges twice (count, then fill) instead of collecting
// pairs.
func (f *Function) PredsInto(t PredTable) PredTable {
	off := refill(t.off, f.NumBlocks()+1)
	edges := 0
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if s.Fn == f { // else foreign: VerifyModule reports it
				off[s.num+1]++
				edges++
			}
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	flat := resize(t.flat, edges)
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if s.Fn == f {
				flat[off[s.num]] = b
				off[s.num]++
			}
		}
	}
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	return PredTable{off: off, flat: flat}
}

// NumInstrs returns the instruction count across all blocks.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// NumBranches counts conditional branches, a key verification-cost metric.
func (f *Function) NumBranches() int {
	n := 0
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil && t.Op == OpCondBr {
			n++
		}
	}
	return n
}

// IsDeclaration reports whether the function has no body.
func (f *Function) IsDeclaration() bool { return len(f.Blocks) == 0 }

// Module is a translation unit: an ordered set of functions and globals.
type Module struct {
	Name    string
	Funcs   []*Function
	Globals []*Global

	funcsByName map[string]*Function
	nextGlobal  int
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, funcsByName: make(map[string]*Function)}
}

// AddFunc appends f, replacing any declaration with the same name.
func (m *Module) AddFunc(f *Function) *Function {
	if old, ok := m.funcsByName[f.Name]; ok {
		if !old.IsDeclaration() && !f.IsDeclaration() {
			panic("ir: duplicate function definition " + f.Name)
		}
		if f.IsDeclaration() {
			return old
		}
		// Replace the declaration in place.
		for i, x := range m.Funcs {
			if x == old {
				m.Funcs[i] = f
			}
		}
	} else {
		m.Funcs = append(m.Funcs, f)
	}
	m.funcsByName[f.Name] = f
	f.Mod = m
	return f
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function { return m.funcsByName[name] }

// AddGlobal appends g to the module, making its name unique if needed.
func (m *Module) AddGlobal(g *Global) *Global {
	for _, old := range m.Globals {
		if old.Name == g.Name {
			m.nextGlobal++
			g.Name = fmt.Sprintf("%s.%d", g.Name, m.nextGlobal)
		}
	}
	m.Globals = append(m.Globals, g)
	return g
}

// RemoveFunc deletes f from the module. It is the caller's job to make
// sure no remaining call instruction names f (the slicer removes
// functions only after every call site referencing them is gone).
func (m *Module) RemoveFunc(f *Function) {
	for i, x := range m.Funcs {
		if x == f {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			break
		}
	}
	if m.funcsByName[f.Name] == f {
		delete(m.funcsByName, f.Name)
	}
}

// Global returns the named global, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// NumInstrs returns the total instruction count of all function bodies,
// the paper's static program-size metric.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}
