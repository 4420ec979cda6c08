package symex

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"overify/internal/expr"
	"overify/internal/ir"
)

// State wire codec: EncodeStates flattens a batch of frontier states
// into a compact, self-contained byte frame; DecodeStates re-interns it
// into another process's engine so exploration continues identically.
//
// The format leans on the same structure the solver's constant-factor
// work does. The constraint DAG is emitted as one batch-wide node table
// in ascending builder-id order — children always precede parents, so
// the table is its own topological order and the decoder rebuilds each
// node with a single Builder call, re-interning it (and re-firing the
// canonical simplifications) in the receiver's DAG. Memory objects go
// through a batch-wide object table in two phases (headers, then
// cells), which preserves aliasing within a state and read-only sharing
// across states, and tolerates self-referential pointer cells. A
// writable object is one table entry per state that holds it (its cells
// are per state; its descriptor is not), a read-only one a single entry
// for the batch. The decoder gives each state's writable objects
// numbers of its own — a global its module number — so nothing of a
// state's numbering crosses the wire. IR
// references cross the wire by stable identity: functions and globals
// by name, blocks by index, instructions by (block, index) — the
// receiving process compiled the same module, so the shapes match.
// A value is a tag plus references: an integer names its node; a
// pointer names its object (0 for null: the shared nullObj is never a
// table entry) and its offset node, which it must have. Carried
// partitions are not serialized: group fingerprints are
// builder-local, so the decoder rebuilds each state's partition from
// its re-interned path condition.
//
// Everything is length-checked: corrupted or truncated frames produce
// errors, never panics. Encoding visits each distinct DAG node exactly
// once per batch — cheaper than once per state — which
// CodecExprVisits() exposes for the walk-counter guard tests.

const (
	codecMagic   = "OVSX"
	codecVersion = 1
)

// codecExprVisits counts DAG-node expansions performed by encoders, the
// codec's analogue of expr.VarSetWalks: tests pin it to exactly one
// visit per distinct reachable node per encoded batch.
var codecExprVisits atomic.Int64

// CodecExprVisits returns the total DAG-node expansions encoders have
// performed in this process.
func CodecExprVisits() int64 { return codecExprVisits.Load() }

// SymVal wire tags.
const (
	svAbsent = 0 // zero SymVal (void results)
	svInt    = 1 // integer expression
	svPtr    = 2 // pointer: object reference + offset expression
)

// ---------------------------------------------------------------------
// Encoder

type encWriter struct{ buf []byte }

func (w *encWriter) u(v uint64)   { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *encWriter) b(v byte)     { w.buf = append(w.buf, v) }
func (w *encWriter) s(s string)   { w.u(uint64(len(s))); w.buf = append(w.buf, s...) }
func (w *encWriter) raw(p []byte) { w.buf = append(w.buf, p...) }

type encoder struct {
	e       *Engine
	w       encWriter
	vars    map[*expr.Var]int
	varList []*expr.Var
	nodes   map[*expr.Expr]int
	objs    map[objKey]int
	objList []objKey
	pc      []*expr.Expr // a state's path condition, oldest first (scratch)
	err     error
}

// objKey names a memory object as the wire does: a writable object by
// its state and descriptor, a read-only one by its descriptor alone.
type objKey struct {
	st *State
	o  *MemObject
}

func key(st *State, o *MemObject) objKey {
	if o.ReadOnly {
		return objKey{o: o}
	}
	return objKey{st, o}
}

// EncodeStates serializes a batch of states from this engine into one
// wire frame. The engine's ordered input variables lead the frame so
// the decoding engine concretizes bug inputs identically.
func (e *Engine) EncodeStates(states []*State) ([]byte, error) {
	enc := &encoder{
		e:     e,
		vars:  make(map[*expr.Var]int),
		nodes: make(map[*expr.Expr]int),
		objs:  make(map[objKey]int),
	}
	for _, v := range e.inputVars {
		enc.vars[v] = len(enc.varList)
		enc.varList = append(enc.varList, v)
	}
	nInput := len(enc.varList)

	// Single pass over everything reachable: collect expression nodes
	// (memoized batch-wide) and memory objects in deterministic order.
	table := enc.collect(states)
	if enc.err != nil {
		return nil, enc.err
	}

	enc.w.raw([]byte(codecMagic))
	enc.w.b(codecVersion)
	enc.w.u(uint64(nInput))
	enc.w.u(uint64(len(enc.varList)))
	for _, v := range enc.varList {
		enc.w.s(v.Name)
		enc.w.u(uint64(v.Bits))
		enc.w.u(uint64(v.Idx))
	}

	enc.w.u(uint64(len(table)))
	for _, x := range table {
		enc.emitNode(x)
	}

	enc.w.u(uint64(len(enc.objList)))
	for _, k := range enc.objList {
		o := k.o
		enc.w.s(o.Name)
		enc.emitType(o.Elem)
		enc.w.u(uint64(o.Count))
		if o.ReadOnly {
			enc.w.b(1)
		} else {
			enc.w.b(0)
		}
		enc.w.u(uint64(o.Count)) // cell count: always Count, and the decoder insists
	}
	for _, k := range enc.objList {
		for i := int64(0); i < k.o.Count; i++ {
			enc.emitSymVal(k.st, k.st.Cell(k.o, i))
		}
	}

	enc.w.u(uint64(len(states)))
	for _, st := range states {
		enc.emitState(st)
	}
	if enc.err != nil {
		return nil, enc.err
	}
	return enc.w.buf, nil
}

// collect walks the batch once: every reachable expression node lands
// in the memo (and is counted by codecExprVisits), every reachable
// memory object joins the object table in first-encounter order. The
// node table is then the memo's keys sorted by builder id — children
// have smaller ids than parents, so ascending id is a topological
// order and the decoder needs no second walk.
func (enc *encoder) collect(states []*State) []*expr.Expr {
	for _, st := range states {
		if sat, trivial := st.Part.Trivial(); trivial && !sat {
			// The unsat partition keeps no history: shipped, it would
			// decode as the empty condition, which every input satisfies.
			enc.fail(fmt.Errorf("symex: codec: state %d has an unsatisfiable path condition", st.ID))
			return nil
		}
		enc.pc = st.Part.AppendConstraints(enc.pc[:0])
		for _, c := range enc.pc {
			enc.visitExpr(c)
		}
		for _, n := range enc.e.byName {
			enc.visitObj(st, enc.e.globals[n])
		}
		for _, f := range st.Frames {
			for _, sv := range f.Regs {
				enc.visitSymVal(st, sv)
			}
		}
	}
	table := make([]*expr.Expr, 0, len(enc.nodes))
	for x := range enc.nodes {
		table = append(table, x)
	}
	slices.SortFunc(table, func(a, b *expr.Expr) int { return cmp.Compare(a.ID(), b.ID()) })
	for i, x := range table {
		enc.nodes[x] = i
	}
	return table
}

func (enc *encoder) visitExpr(x *expr.Expr) {
	if x == nil {
		return
	}
	if _, ok := enc.nodes[x]; ok {
		return
	}
	enc.nodes[x] = -1 // placeholder; final index assigned after the sort
	codecExprVisits.Add(1)
	if x.Kind == expr.KVar {
		if _, ok := enc.vars[x.V]; !ok {
			enc.vars[x.V] = len(enc.varList)
			enc.varList = append(enc.varList, x.V)
		}
		return
	}
	for _, a := range x.Args {
		enc.visitExpr(a)
	}
}

func (enc *encoder) visitSymVal(st *State, v SymVal) {
	enc.visitExpr(v.E)
	enc.visitObj(st, v.Obj)
}

func (enc *encoder) visitObj(st *State, o *MemObject) {
	if o == nil || o == nullObj {
		return
	}
	k := key(st, o)
	if _, ok := enc.objs[k]; ok {
		return
	}
	enc.objs[k] = len(enc.objList)
	enc.objList = append(enc.objList, k)
	for i := int64(0); i < o.Count; i++ {
		enc.visitSymVal(st, st.Cell(o, i))
	}
}

func (enc *encoder) emitNode(x *expr.Expr) {
	enc.w.b(byte(x.Kind))
	enc.w.u(uint64(x.Bits))
	switch x.Kind {
	case expr.KConst:
		enc.w.u(x.Val)
	case expr.KVar:
		enc.w.u(uint64(enc.vars[x.V]))
	case expr.KBin, expr.KCmp:
		enc.w.u(uint64(x.Op))
		enc.w.u(uint64(enc.nodes[x.Args[0]]))
		enc.w.u(uint64(enc.nodes[x.Args[1]]))
	case expr.KSelect:
		enc.w.u(uint64(enc.nodes[x.Args[0]]))
		enc.w.u(uint64(enc.nodes[x.Args[1]]))
		enc.w.u(uint64(enc.nodes[x.Args[2]]))
	case expr.KCast:
		enc.w.u(uint64(x.Op))
		enc.w.u(uint64(enc.nodes[x.Args[0]]))
	case expr.KRead:
		enc.w.u(uint64(len(x.Table)))
		for _, v := range x.Table {
			enc.w.u(v)
		}
		enc.w.u(uint64(enc.nodes[x.Args[0]]))
	default:
		enc.fail(fmt.Errorf("symex: codec: unknown expr kind %d", x.Kind))
	}
}

func (enc *encoder) emitType(t ir.Type) {
	switch t := t.(type) {
	case ir.IntType:
		enc.w.b(0)
		enc.w.u(uint64(t.Bits))
	case ir.PtrType:
		enc.w.b(1)
		enc.emitType(t.Elem)
	case ir.ArrayType:
		enc.w.b(2)
		enc.emitType(t.Elem)
		enc.w.u(uint64(t.Len))
	case ir.VoidType:
		enc.w.b(3)
	default:
		enc.fail(fmt.Errorf("symex: codec: unencodable type %v", t))
	}
}

// emitSymVal writes a value. A pointer is its object reference (table
// index+1, 0 for null) and its offset's node reference (index+1; never
// 0, and the decoder rejects a 0 there).
func (enc *encoder) emitSymVal(st *State, v SymVal) {
	switch {
	case v.Obj != nil:
		enc.w.b(svPtr)
		if v.Obj == nullObj {
			enc.w.u(0)
		} else {
			enc.w.u(uint64(enc.objs[key(st, v.Obj)]) + 1)
		}
		enc.w.u(uint64(enc.nodes[v.E]) + 1)
	case v.E != nil:
		enc.w.b(svInt)
		enc.w.u(uint64(enc.nodes[v.E]))
	default:
		enc.w.b(svAbsent)
	}
}

func (enc *encoder) emitState(st *State) {
	enc.w.u(uint64(st.ID))
	enc.w.u(uint64(st.Forks))
	enc.pc = st.Part.AppendConstraints(enc.pc[:0])
	enc.w.u(uint64(len(enc.pc)))
	for _, c := range enc.pc {
		enc.w.u(uint64(enc.nodes[c]))
	}

	enc.w.u(uint64(len(enc.e.byName)))
	for _, n := range enc.e.byName {
		enc.w.s(enc.e.Mod.Globals[n].Name)
		enc.w.u(uint64(enc.objs[key(st, enc.e.globals[n])]))
	}

	enc.w.u(uint64(len(st.Frames)))
	for _, f := range st.Frames {
		enc.emitFrame(st, f)
	}
}

func (enc *encoder) emitFrame(st *State, f *Frame) {
	enc.w.s(f.Fn.Name)
	enc.w.u(uint64(blockIndex(f.Fn, f.Block, enc)))
	if f.Prev == nil {
		enc.w.u(0)
	} else {
		enc.w.u(uint64(blockIndex(f.Fn, f.Prev, enc)) + 1)
	}
	enc.w.u(uint64(f.Idx))
	if f.Caller == nil {
		enc.w.b(0)
	} else {
		// The awaiting call instruction lives in the *caller's* function;
		// the decoder resolves it against the previous frame.
		blk := f.Caller.Blk
		ii := slices.Index(blk.Instrs, f.Caller)
		if ii < 0 {
			enc.fail(fmt.Errorf("symex: codec: caller instruction not found in %s", f.Fn.Name))
		}
		enc.w.b(1)
		enc.w.u(uint64(blockIndex(blk.Fn, blk, enc)))
		enc.w.u(uint64(ii))
	}

	// Assigned registers, keyed on the wire by param index or (block,
	// index): register order is that order, so one walk of the function
	// beside the register file writes them sorted.
	assigned := 0
	for _, sv := range f.Regs {
		if sv.defined() {
			assigned++
		}
	}
	enc.w.u(uint64(assigned))
	for i := range f.Fn.Params {
		if sv := f.Regs[i]; sv.defined() {
			enc.w.b(0)
			enc.w.u(uint64(i))
			enc.emitSymVal(st, sv)
		}
	}
	slot := len(f.Fn.Params)
	for bi, b := range f.Fn.Blocks {
		for ii, in := range b.Instrs {
			if ir.SameType(in.Typ, ir.Void) {
				continue
			}
			if sv := f.Regs[slot]; sv.defined() {
				enc.w.b(1)
				enc.w.u(uint64(bi))
				enc.w.u(uint64(ii))
				enc.emitSymVal(st, sv)
			}
			slot++
		}
	}
}

func (enc *encoder) fail(err error) {
	if enc.err == nil {
		enc.err = err
	}
}

func blockIndex(fn *ir.Function, b *ir.Block, enc *encoder) int {
	for i, x := range fn.Blocks {
		if x == b {
			return i
		}
	}
	enc.fail(fmt.Errorf("symex: codec: block %s not in %s", b.Name, fn.Name))
	return 0
}

// ---------------------------------------------------------------------
// Decoder

type decReader struct {
	data []byte
	pos  int
}

func (r *decReader) remaining() int { return len(r.data) - r.pos }

func (r *decReader) u() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("symex: codec: truncated varint at %d", r.pos)
	}
	r.pos += n
	return v, nil
}

// count reads a length whose elements occupy at least min bytes each,
// rejecting counts the remaining frame cannot possibly hold (the
// corrupted-frame allocation guard).
func (r *decReader) count(min int) (int, error) {
	v, err := r.u()
	if err != nil {
		return 0, err
	}
	if min < 1 {
		min = 1
	}
	if v > uint64(r.remaining()/min)+1 {
		return 0, fmt.Errorf("symex: codec: implausible count %d at %d", v, r.pos)
	}
	return int(v), nil
}

func (r *decReader) b() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("symex: codec: truncated frame at %d", r.pos)
	}
	c := r.data[r.pos]
	r.pos++
	return c, nil
}

func (r *decReader) s() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	if r.remaining() < n {
		return "", fmt.Errorf("symex: codec: truncated string at %d", r.pos)
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s, nil
}

type decoder struct {
	e     *Engine
	r     decReader
	vars  []*expr.Var
	nodes []*expr.Expr
	objs  []*MemObject
	cells map[*MemObject][]SymVal   // a decoded writable object's cells, until a state numbers it
	alias map[*MemObject]*MemObject // a decoded global's object → the engine's descriptor
}

// DecodeStates rebuilds a wire frame produced by EncodeStates into
// live states of this engine: expressions re-interned through the
// engine's builder, memory objects reconstructed with their aliasing,
// IR references resolved against the engine's module (which must be
// the same compiled program), and partitions rebuilt from the decoded
// path conditions. The frame's input-variable list is installed as the
// engine's, so bug inputs concretize identically; the engine's state-id
// counter advances past every decoded id so local forks never collide.
// A corrupted or truncated frame yields an error, never a panic.
func (e *Engine) DecodeStates(data []byte) (states []*State, err error) {
	// The builder panics on malformed structure (width mismatches and
	// the like); a corrupted frame must surface as an error instead.
	defer func() {
		if rec := recover(); rec != nil {
			states, err = nil, fmt.Errorf("symex: codec: corrupt frame: %v", rec)
		}
	}()
	d := &decoder{e: e, r: decReader{data: data}, cells: make(map[*MemObject][]SymVal), alias: make(map[*MemObject]*MemObject)}
	if len(data) < len(codecMagic)+1 || string(data[:len(codecMagic)]) != codecMagic {
		return nil, fmt.Errorf("symex: codec: bad magic")
	}
	d.r.pos = len(codecMagic)
	ver, err := d.r.b()
	if err != nil {
		return nil, err
	}
	if ver != codecVersion {
		return nil, fmt.Errorf("symex: codec: version %d, want %d", ver, codecVersion)
	}
	if err := d.readVars(); err != nil {
		return nil, err
	}
	if err := d.readNodes(); err != nil {
		return nil, err
	}
	if err := d.readObjects(); err != nil {
		return nil, err
	}
	n, err := d.r.count(4)
	if err != nil {
		return nil, err
	}
	states = make([]*State, 0, n)
	maxID := int64(-1)
	for i := 0; i < n; i++ {
		st, err := d.readState()
		if err != nil {
			return nil, err
		}
		if st.ID > maxID {
			maxID = st.ID
		}
		states = append(states, st)
	}
	if d.r.remaining() != 0 {
		return nil, fmt.Errorf("symex: codec: %d trailing bytes", d.r.remaining())
	}
	for _, st := range states {
		if err := d.number(st); err != nil {
			return nil, err
		}
	}
	for {
		cur := e.nextState.Load()
		if maxID < cur || e.nextState.CompareAndSwap(cur, maxID+1) {
			break
		}
	}
	return states, nil
}

func (d *decoder) readVars() error {
	nInput, err := d.r.u()
	if err != nil {
		return err
	}
	n, err := d.r.count(3)
	if err != nil {
		return err
	}
	if nInput > uint64(n) {
		return fmt.Errorf("symex: codec: %d input vars of %d", nInput, n)
	}
	d.vars = make([]*expr.Var, n)
	inputs := make([]*expr.Var, 0, nInput)
	for i := 0; i < n; i++ {
		name, err := d.r.s()
		if err != nil {
			return err
		}
		bits, err := d.r.u()
		if err != nil {
			return err
		}
		idx, err := d.r.u()
		if err != nil {
			return err
		}
		if bits == 0 || bits > 64 {
			return fmt.Errorf("symex: codec: var %q has %d bits", name, bits)
		}
		node := d.e.B.Var(&expr.Var{Name: name, Bits: int(bits), Idx: int(idx)})
		d.vars[i] = node.V
		if i < int(nInput) {
			inputs = append(inputs, node.V)
		}
	}
	d.e.inputVars = inputs
	return nil
}

func (d *decoder) readNodes() error {
	n, err := d.r.count(2)
	if err != nil {
		return err
	}
	d.nodes = make([]*expr.Expr, 0, n)
	for i := 0; i < n; i++ {
		x, err := d.readNode()
		if err != nil {
			return err
		}
		d.nodes = append(d.nodes, x)
	}
	return nil
}

// arg resolves a node-table reference; only already-decoded indices are
// valid (the table is topologically ordered).
func (d *decoder) arg() (*expr.Expr, error) {
	i, err := d.r.u()
	if err != nil {
		return nil, err
	}
	if i >= uint64(len(d.nodes)) {
		return nil, fmt.Errorf("symex: codec: forward node ref %d at %d", i, d.r.pos)
	}
	return d.nodes[i], nil
}

func (d *decoder) readNode() (*expr.Expr, error) {
	kind, err := d.r.b()
	if err != nil {
		return nil, err
	}
	bits64, err := d.r.u()
	if err != nil {
		return nil, err
	}
	bits := int(bits64)
	if bits <= 0 || bits > 64 {
		return nil, fmt.Errorf("symex: codec: node with %d bits", bits)
	}
	B := d.e.B
	switch expr.Kind(kind) {
	case expr.KConst:
		v, err := d.r.u()
		if err != nil {
			return nil, err
		}
		return B.Const(bits, v), nil
	case expr.KVar:
		i, err := d.r.u()
		if err != nil {
			return nil, err
		}
		if i >= uint64(len(d.vars)) {
			return nil, fmt.Errorf("symex: codec: var ref %d of %d", i, len(d.vars))
		}
		return B.Var(d.vars[i]), nil
	case expr.KBin, expr.KCmp:
		op, err := d.r.u()
		if err != nil {
			return nil, err
		}
		x, err := d.arg()
		if err != nil {
			return nil, err
		}
		y, err := d.arg()
		if err != nil {
			return nil, err
		}
		if expr.Kind(kind) == expr.KBin {
			return B.Bin(ir.Op(op), x, y), nil
		}
		return B.Cmp(ir.Op(op), x, y), nil
	case expr.KSelect:
		c, err := d.arg()
		if err != nil {
			return nil, err
		}
		t, err := d.arg()
		if err != nil {
			return nil, err
		}
		f, err := d.arg()
		if err != nil {
			return nil, err
		}
		return B.Select(c, t, f), nil
	case expr.KCast:
		op, err := d.r.u()
		if err != nil {
			return nil, err
		}
		x, err := d.arg()
		if err != nil {
			return nil, err
		}
		return B.Cast(ir.Op(op), x, bits), nil
	case expr.KRead:
		tn, err := d.r.count(1)
		if err != nil {
			return nil, err
		}
		table := make([]uint64, tn)
		for i := range table {
			if table[i], err = d.r.u(); err != nil {
				return nil, err
			}
		}
		idx, err := d.arg()
		if err != nil {
			return nil, err
		}
		return B.Read(table, bits, idx), nil
	}
	return nil, fmt.Errorf("symex: codec: unknown node kind %d", kind)
}

func (d *decoder) readType() (ir.Type, error) {
	tag, err := d.r.b()
	if err != nil {
		return nil, err
	}
	switch tag {
	case 0:
		bits, err := d.r.u()
		if err != nil {
			return nil, err
		}
		if bits == 0 || bits > 64 {
			return nil, fmt.Errorf("symex: codec: int type of %d bits", bits)
		}
		return ir.IntType{Bits: int(bits)}, nil
	case 1:
		elem, err := d.readType()
		if err != nil {
			return nil, err
		}
		return ir.PtrTo(elem), nil
	case 2:
		elem, err := d.readType()
		if err != nil {
			return nil, err
		}
		n, err := d.r.u()
		if err != nil {
			return nil, err
		}
		return ir.ArrayType{Elem: elem, Len: int64(n)}, nil
	case 3:
		return ir.Void, nil
	}
	return nil, fmt.Errorf("symex: codec: unknown type tag %d", tag)
}

func (d *decoder) readObjects() error {
	n, err := d.r.count(5)
	if err != nil {
		return err
	}
	d.objs = make([]*MemObject, n)
	// Phase one: allocate every object from its header so cell pointers
	// can reference any object (aliasing, cycles, forward references).
	cells := make([][]SymVal, n)
	for i := 0; i < n; i++ {
		name, err := d.r.s()
		if err != nil {
			return err
		}
		elem, err := d.readType()
		if err != nil {
			return err
		}
		count, err := d.r.u()
		if err != nil {
			return err
		}
		ro, err := d.r.b()
		if err != nil {
			return err
		}
		nc, err := d.r.count(1)
		if err != nil {
			return err
		}
		if count != uint64(nc) {
			// Bounds checks trust Count; it must be the cells there are.
			return fmt.Errorf("symex: codec: object %q has count %d but %d cells", name, count, nc)
		}
		cells[i] = make([]SymVal, nc)
		d.objs[i] = &MemObject{Name: name, Elem: elem, Count: int64(count), ReadOnly: ro == 1, num: -1}
	}
	// Phase two: fill the cells (the pages alias them).
	for i, o := range d.objs {
		for j := range cells[i] {
			if cells[i][j], err = d.readSymVal(); err != nil {
				return err
			}
		}
		if o.ReadOnly {
			o.pages = paginate(cells[i])
		} else {
			d.cells[o] = cells[i]
		}
	}
	return nil
}

// number gives each writable object st reaches, other than a global,
// the state's next number and its cells a header, and points every
// pointer to a global at the engine's descriptor of it, the one the IR's
// references to the global evaluate to. A writable object belongs to
// one state: the encoder writes one per state that holds it. Frames
// start above every decoded object, so no return gives one back.
func (d *decoder) number(st *State) error {
	st.nobj = int32(len(d.e.globals))
	seen := make(map[*MemObject]bool)
	stack := slices.Clone(d.e.globals)
	visit := func(vals []SymVal) {
		for i := range vals {
			if g := d.alias[vals[i].Obj]; g != nil {
				vals[i].Obj = g
			}
			if o := vals[i].Obj; o != nil && o != nullObj && !seen[o] {
				seen[o] = true
				stack = append(stack, o)
			}
		}
	}
	for _, f := range st.Frames {
		visit(f.Regs)
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cells, ok := d.cells[o]; ok {
			if o.num >= 0 {
				return fmt.Errorf("symex: codec: object %q held by two states", o.Name)
			}
			st.alloc(o, cells)
		}
		pages := o.pages
		if !o.ReadOnly {
			pages = st.at(o.num).pages
		}
		for _, p := range pages {
			visit(p.cells)
		}
	}
	for _, f := range st.Frames {
		f.base = st.nobj
	}
	return nil
}

func (d *decoder) readSymVal() (SymVal, error) {
	tag, err := d.r.b()
	if err != nil {
		return SymVal{}, err
	}
	switch tag {
	case svAbsent:
		return SymVal{}, nil
	case svInt:
		x, err := d.arg()
		if err != nil {
			return SymVal{}, err
		}
		return SymVal{E: x}, nil
	case svPtr:
		oi, err := d.r.u()
		if err != nil {
			return SymVal{}, err
		}
		obj := nullObj
		if oi != 0 {
			if oi-1 >= uint64(len(d.objs)) {
				return SymVal{}, fmt.Errorf("symex: codec: object ref %d of %d", oi-1, len(d.objs))
			}
			obj = d.objs[oi-1]
		}
		i, err := d.r.u()
		if err != nil {
			return SymVal{}, err
		}
		if i == 0 {
			// Every GEP, load and store reads the offset: a pointer without
			// one would fault in the worker that explores the state.
			return SymVal{}, fmt.Errorf("symex: codec: pointer without offset at %d", d.r.pos)
		}
		if i-1 >= uint64(len(d.nodes)) {
			return SymVal{}, fmt.Errorf("symex: codec: node ref %d of %d", i-1, len(d.nodes))
		}
		off := d.nodes[i-1]
		if off.Bits != 64 {
			return SymVal{}, fmt.Errorf("symex: codec: pointer offset of %d bits at %d", off.Bits, d.r.pos)
		}
		return SymVal{E: off, Obj: obj}, nil
	}
	return SymVal{}, fmt.Errorf("symex: codec: unknown symval tag %d", tag)
}

func (d *decoder) readState() (*State, error) {
	id, err := d.r.u()
	if err != nil {
		return nil, err
	}
	forks, err := d.r.u()
	if err != nil {
		return nil, err
	}
	st := &State{ID: int64(id), Forks: int(forks)}

	npc, err := d.r.count(1)
	if err != nil {
		return nil, err
	}
	// Group fingerprints are builder-local, so the carried partition is
	// rebuilt from the re-interned condition rather than shipped. Its
	// model-reuse memo restarts cold; verdicts and query counts are
	// unaffected.
	for i := 0; i < npc; i++ {
		c, err := d.arg()
		if err != nil {
			return nil, err
		}
		st.Part = st.Part.Extend(c)
	}

	ng, err := d.r.count(2)
	if err != nil {
		return nil, err
	}
	if ng != len(d.e.globals) {
		return nil, fmt.Errorf("symex: codec: state has %d globals, module %d", ng, len(d.e.globals))
	}
	listed := make([]bool, ng)
	for i := 0; i < ng; i++ {
		name, err := d.r.s()
		if err != nil {
			return nil, err
		}
		oi, err := d.r.u()
		if err != nil {
			return nil, err
		}
		g := d.e.Mod.Global(name)
		if g == nil {
			return nil, fmt.Errorf("symex: codec: no global %q in module", name)
		}
		if oi >= uint64(len(d.objs)) {
			return nil, fmt.Errorf("symex: codec: global object ref %d of %d", oi, len(d.objs))
		}
		n, o := d.e.globalNum[g], d.objs[oi]
		want := d.e.globals[n]
		if listed[n] || o.Name != want.Name || o.Count != want.Count || o.ReadOnly != want.ReadOnly ||
			!ir.SameType(o.Elem, want.Elem) || (d.alias[o] != nil && d.alias[o] != want) {
			return nil, fmt.Errorf("symex: codec: object %q does not fit global %q", o.Name, name)
		}
		listed[n], d.alias[o] = true, want
		switch {
		case o.ReadOnly:
			if want.pages == nil { // the first state of this engine
				want.pages = o.pages
			}
		case o.num >= 0:
			return nil, fmt.Errorf("symex: codec: object %q held by two states", o.Name)
		default:
			o.num = n
			st.install(n, paginate(d.cells[o]), false)
		}
	}

	nf, err := d.r.count(4)
	if err != nil {
		return nil, err
	}
	st.Frames = make([]*Frame, 0, nf)
	for i := 0; i < nf; i++ {
		f, err := d.readFrame(st.Frames)
		if err != nil {
			return nil, err
		}
		st.Frames = append(st.Frames, f)
	}
	return st, nil
}

func (d *decoder) readFrame(outer []*Frame) (*Frame, error) {
	fnName, err := d.r.s()
	if err != nil {
		return nil, err
	}
	fn := d.e.Mod.Func(fnName)
	if fn == nil {
		return nil, fmt.Errorf("symex: codec: no function %q in module", fnName)
	}
	bi, err := d.r.u()
	if err != nil {
		return nil, err
	}
	if bi >= uint64(len(fn.Blocks)) {
		return nil, fmt.Errorf("symex: codec: block %d of %d in %s", bi, len(fn.Blocks), fnName)
	}
	f := d.e.newFrame(fn, nil)
	f.Block = fn.Blocks[bi]
	pi, err := d.r.u()
	if err != nil {
		return nil, err
	}
	if pi != 0 {
		if pi-1 >= uint64(len(fn.Blocks)) {
			return nil, fmt.Errorf("symex: codec: prev block %d of %d in %s", pi-1, len(fn.Blocks), fnName)
		}
		f.Prev = fn.Blocks[pi-1]
	}
	idx, err := d.r.u()
	if err != nil {
		return nil, err
	}
	if idx > uint64(len(f.Block.Instrs)) {
		return nil, fmt.Errorf("symex: codec: instr index %d of %d in %s/%s", idx, len(f.Block.Instrs), fnName, f.Block.Name)
	}
	f.Idx = int(idx)

	hasCaller, err := d.r.b()
	if err != nil {
		return nil, err
	}
	if hasCaller == 1 {
		if len(outer) == 0 {
			return nil, fmt.Errorf("symex: codec: caller on bottom frame")
		}
		callerFn := outer[len(outer)-1].Fn
		in, err := d.readInstrRef(callerFn)
		if err != nil {
			return nil, err
		}
		f.Caller = in
	}

	nl, err := d.r.count(2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nl; i++ {
		tag, err := d.r.b()
		if err != nil {
			return nil, err
		}
		var slot int
		switch tag {
		case 0:
			pidx, err := d.r.u()
			if err != nil {
				return nil, err
			}
			if pidx >= uint64(len(fn.Params)) {
				return nil, fmt.Errorf("symex: codec: param %d of %d in %s", pidx, len(fn.Params), fnName)
			}
			slot = int(pidx)
		case 1:
			in, err := d.readInstrRef(fn)
			if err != nil {
				return nil, err
			}
			if ir.SameType(in.Typ, ir.Void) {
				return nil, fmt.Errorf("symex: codec: local keyed by void instruction in %s", fnName)
			}
			slot = f.lay.index(in)
		default:
			return nil, fmt.Errorf("symex: codec: unknown local key tag %d", tag)
		}
		sv, err := d.readSymVal()
		if err != nil {
			return nil, err
		}
		f.Regs[slot] = sv
	}
	return f, nil
}

func (d *decoder) readInstrRef(fn *ir.Function) (*ir.Instr, error) {
	bi, err := d.r.u()
	if err != nil {
		return nil, err
	}
	ii, err := d.r.u()
	if err != nil {
		return nil, err
	}
	if bi >= uint64(len(fn.Blocks)) {
		return nil, fmt.Errorf("symex: codec: instr block %d of %d in %s", bi, len(fn.Blocks), fn.Name)
	}
	b := fn.Blocks[bi]
	if ii >= uint64(len(b.Instrs)) {
		return nil, fmt.Errorf("symex: codec: instr %d of %d in %s/%s", ii, len(b.Instrs), fn.Name, b.Name)
	}
	return b.Instrs[ii], nil
}
