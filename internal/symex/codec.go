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
// Everything is length- and range-checked, down to a frame's
// instruction index: corrupted or truncated frames produce errors,
// never panics. Encoding visits each distinct DAG node exactly
// once per batch — cheaper than once per state — which
// CodecExprVisits() exposes for the walk-counter guard tests.

const (
	codecMagic   = "OVSX"
	codecVersion = 2
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

// decReader reads what encWriter writes and keeps the first error, as
// the encoder does: after it every read returns a zero value, so a
// record reads its fields and checks err once, before it uses them.
type decReader struct {
	data []byte
	pos  int
	err  error
}

func (r *decReader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("symex: codec: "+format, args...)
	}
}

func (r *decReader) remaining() int { return len(r.data) - r.pos }

func (r *decReader) u() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.failf("truncated varint at %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// count reads a length whose elements occupy at least min bytes each,
// rejecting counts the remaining frame cannot possibly hold (the
// corrupted-frame allocation guard).
func (r *decReader) count(min int) int {
	v := r.u()
	if v > uint64(r.remaining()/min)+1 {
		r.failf("implausible count %d at %d", v, r.pos)
		return 0
	}
	return int(v)
}

func (r *decReader) b() byte {
	if r.pos >= len(r.data) {
		r.failf("truncated frame at %d", r.pos)
	}
	if r.err != nil {
		return 0
	}
	r.pos++
	return r.data[r.pos-1]
}

func (r *decReader) s() string {
	n := r.count(1)
	if r.remaining() < n {
		r.failf("truncated string at %d", r.pos)
	}
	if r.err != nil {
		return ""
	}
	r.pos += n
	return string(r.data[r.pos-n : r.pos])
}

// pick reads a reference to an entry of list, written as its index plus
// base: a base of 1 leaves 0 to name no entry, which reads as T's zero
// value. An index past the list fails the frame; after a failure pick
// returns the zero value.
func pick[T any](r *decReader, list []T, base uint64, what string) T {
	var zero T
	i := r.u()
	if r.err != nil || i < base {
		return zero
	}
	if i-base >= uint64(len(list)) {
		r.failf("%s ref %d of %d at %d", what, i-base, len(list), r.pos)
		return zero
	}
	return list[i-base]
}

type decoder struct {
	e     *Engine
	r     decReader
	vars  []*expr.Var
	nodes []*expr.Expr
	objs  []*MemObject
	pc    []*expr.Expr              // a state's path condition (scratch)
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
	if len(data) < len(codecMagic)+1 || string(data[:len(codecMagic)]) != codecMagic {
		return nil, fmt.Errorf("symex: codec: bad magic")
	}
	d := &decoder{e: e, r: decReader{data: data, pos: len(codecMagic)}, cells: make(map[*MemObject][]SymVal), alias: make(map[*MemObject]*MemObject)}
	if ver := d.r.b(); ver != codecVersion {
		return nil, fmt.Errorf("symex: codec: version %d, want %d", ver, codecVersion)
	}
	d.readVars()
	d.readNodes()
	d.readObjects()
	states = make([]*State, d.r.count(4))
	for i := range states {
		states[i] = d.readState()
	}
	if d.r.remaining() != 0 {
		d.r.failf("%d trailing bytes", d.r.remaining())
	}
	if d.r.err != nil {
		return nil, d.r.err
	}
	maxID := int64(-1)
	for _, st := range states {
		if err := d.number(st); err != nil {
			return nil, err
		}
		maxID = max(maxID, st.ID)
	}
	e.nextState = max(e.nextState, maxID+1)
	return states, nil
}

func (d *decoder) readVars() {
	nInput, n := d.r.u(), d.r.count(3)
	if nInput > uint64(n) {
		d.r.failf("%d input vars of %d", nInput, n)
	}
	d.vars = make([]*expr.Var, n)
	for i := range d.vars {
		name, bits, idx := d.r.s(), d.r.u(), d.r.u()
		if bits == 0 || bits > 64 {
			d.r.failf("var %q has %d bits", name, bits)
		}
		if d.r.err != nil {
			return
		}
		d.vars[i] = d.e.B.Var(&expr.Var{Name: name, Bits: int(bits), Idx: int(idx)}).V
	}
	if d.r.err == nil {
		d.e.inputVars = d.vars[:nInput:nInput]
	}
}

func (d *decoder) readNodes() {
	n := d.r.count(2)
	d.nodes = make([]*expr.Expr, 0, n)
	for range n {
		d.nodes = append(d.nodes, d.readNode())
	}
}

// arg reads a node-table reference; only already-decoded indices are
// valid (the table is topologically ordered).
func (d *decoder) arg() *expr.Expr { return pick(&d.r, d.nodes, 0, "node") }

// readNode reads one node and re-interns it. The builder runs only once
// the node has read cleanly: a failed reference reads as nil, on which
// it would panic.
func (d *decoder) readNode() *expr.Expr {
	kind, bits := expr.Kind(d.r.b()), int(d.r.u())
	if bits <= 0 || bits > 64 {
		d.r.failf("node with %d bits", bits)
	}
	B := d.e.B
	var build func() *expr.Expr
	switch kind {
	case expr.KConst:
		v := d.r.u()
		build = func() *expr.Expr { return B.Const(bits, v) }
	case expr.KVar:
		v := pick(&d.r, d.vars, 0, "var")
		build = func() *expr.Expr { return B.Var(v) }
	case expr.KBin:
		op, x, y := ir.Op(d.r.u()), d.arg(), d.arg()
		build = func() *expr.Expr { return B.Bin(op, x, y) }
	case expr.KCmp:
		op, x, y := ir.Op(d.r.u()), d.arg(), d.arg()
		build = func() *expr.Expr { return B.Cmp(op, x, y) }
	case expr.KSelect:
		c, t, f := d.arg(), d.arg(), d.arg()
		build = func() *expr.Expr { return B.Select(c, t, f) }
	case expr.KCast:
		op, x := ir.Op(d.r.u()), d.arg()
		build = func() *expr.Expr { return B.Cast(op, x, bits) }
	case expr.KRead:
		table := make([]uint64, d.r.count(1))
		for i := range table {
			table[i] = d.r.u()
		}
		idx := d.arg()
		build = func() *expr.Expr { return B.Read(table, bits, idx) }
	default:
		d.r.failf("unknown node kind %d", kind)
	}
	if d.r.err != nil {
		return nil
	}
	return build()
}

func (d *decoder) readType() ir.Type {
	switch tag := d.r.b(); tag {
	case 0:
		bits := d.r.u()
		if bits == 0 || bits > 64 {
			d.r.failf("int type of %d bits", bits)
		}
		return ir.IntType{Bits: int(bits)}
	case 1:
		return ir.PtrTo(d.readType())
	case 2:
		elem := d.readType()
		return ir.ArrayType{Elem: elem, Len: int64(d.r.u())}
	case 3:
		return ir.Void
	default:
		d.r.failf("unknown type tag %d", tag)
		return nil
	}
}

func (d *decoder) readObjects() {
	d.objs = make([]*MemObject, d.r.count(5))
	// Phase one: allocate every object from its header so cell pointers
	// can reference any object (aliasing, cycles, forward references).
	cells := make([][]SymVal, len(d.objs))
	for i := range d.objs {
		name, elem, count := d.r.s(), d.readType(), d.r.u()
		ro, nc := d.r.b(), d.r.count(1)
		if count != uint64(nc) {
			// Bounds checks trust Count; it must be the cells there are.
			d.r.failf("object %q has count %d but %d cells", name, count, nc)
		}
		cells[i] = make([]SymVal, nc)
		d.objs[i] = &MemObject{Name: name, Elem: elem, Count: int64(count), ReadOnly: ro == 1, num: -1}
	}
	// Phase two: fill the cells (the pages alias them).
	for i, o := range d.objs {
		for j := range cells[i] {
			cells[i][j] = d.readSymVal()
		}
		if o.ReadOnly {
			o.pages = paginate(cells[i])
		} else {
			d.cells[o] = cells[i]
		}
	}
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

// readSymVal reads a value. A pointer's object reference is index+1 (0
// for null), its offset's node reference index+1 (never 0).
func (d *decoder) readSymVal() SymVal {
	switch tag := d.r.b(); tag {
	case svAbsent:
		return SymVal{}
	case svInt:
		return SymVal{E: d.arg()}
	case svPtr:
		obj := pick(&d.r, d.objs, 1, "object")
		off := pick(&d.r, d.nodes, 1, "node")
		switch {
		case d.r.err != nil:
		case off == nil:
			// Every GEP, load and store reads the offset: a pointer without
			// one would fault in the worker that explores the state.
			d.r.failf("pointer without offset at %d", d.r.pos)
		case off.Bits != 64:
			d.r.failf("pointer offset of %d bits at %d", off.Bits, d.r.pos)
		}
		return SymVal{E: off, Obj: cmp.Or(obj, nullObj)}
	default:
		d.r.failf("unknown symval tag %d", tag)
		return SymVal{}
	}
}

func (d *decoder) readState() *State {
	st := &State{ID: int64(d.r.u()), Forks: int(d.r.u())}
	d.pc = d.pc[:0]
	for range d.r.count(1) {
		d.pc = append(d.pc, d.arg())
	}
	ng := d.r.count(2)
	if ng != len(d.e.globals) {
		d.r.failf("state has %d globals, module %d", ng, len(d.e.globals))
	}
	if d.r.err != nil {
		return nil
	}
	// Group fingerprints are builder-local, so the carried partition is
	// rebuilt from the re-interned condition rather than shipped. Its
	// model-reuse memo restarts cold; verdicts and query counts are
	// unaffected.
	for _, c := range d.pc {
		st.Part = st.Part.Extend(c)
	}

	listed := make([]bool, ng)
	for range ng {
		name, o := d.r.s(), pick(&d.r, d.objs, 0, "global object")
		g := d.e.Mod.Global(name)
		if g == nil {
			d.r.failf("no global %q in module", name)
		}
		if d.r.err != nil {
			return nil
		}
		n := d.e.globalNum[g]
		want := d.e.globals[n]
		if listed[n] || o.Name != want.Name || o.Count != want.Count || o.ReadOnly != want.ReadOnly ||
			!ir.SameType(o.Elem, want.Elem) || (d.alias[o] != nil && d.alias[o] != want) {
			d.r.failf("object %q does not fit global %q", o.Name, name)
			return nil
		}
		listed[n], d.alias[o] = true, want
		switch {
		case o.ReadOnly:
			if want.pages == nil { // the first state of this engine
				want.pages = o.pages
			}
		case o.num >= 0:
			d.r.failf("object %q held by two states", o.Name)
			return nil
		default:
			o.num = n
			st.install(n, paginate(d.cells[o]), false)
		}
	}

	st.Frames = make([]*Frame, 0, d.r.count(4))
	for range cap(st.Frames) {
		st.Frames = append(st.Frames, d.readFrame(st.Frames))
	}
	return st
}

func (d *decoder) readFrame(outer []*Frame) *Frame {
	name := d.r.s()
	fn := d.e.Mod.Func(name)
	if fn == nil {
		d.r.failf("no function %q in module", name)
		return nil
	}
	blk := pick(&d.r, fn.Blocks, 0, "block")
	idx := d.r.u()
	var caller *ir.Instr
	if d.r.b() == 1 {
		if len(outer) == 0 {
			d.r.failf("caller on bottom frame")
		} else {
			// The awaiting call lives in the caller's function.
			caller = d.instr(outer[len(outer)-1].Fn)
		}
	}
	// A frame resumes at an instruction its block executes: past the
	// phis, which only a jump into the block evaluates, and before the
	// block's end.
	if blk != nil && (idx < uint64(len(blk.Phis())) || idx >= uint64(len(blk.Instrs))) {
		d.r.failf("instr index %d outside %d..%d in %s/%s", idx, len(blk.Phis()), len(blk.Instrs)-1, name, blk.Name)
	}
	if d.r.err != nil {
		return nil
	}
	f := d.e.newFrame(fn, caller)
	f.Block, f.Idx = blk, int(idx)

	// Assigned registers, keyed by param index or (block, index).
	for range d.r.count(2) {
		slot := -1
		switch tag := d.r.b(); tag {
		case 0:
			if p := pick(&d.r, fn.Params, 0, "param"); p != nil {
				slot = p.Idx
			}
		case 1:
			if in := d.instr(fn); in != nil {
				if ir.SameType(in.Typ, ir.Void) {
					d.r.failf("local keyed by void instruction in %s", name)
				}
				slot = f.lay.index(in)
			}
		default:
			d.r.failf("unknown local key tag %d", tag)
		}
		sv := d.readSymVal()
		if d.r.err != nil {
			return nil
		}
		f.Regs[slot] = sv
	}
	return f
}

// instr reads an instruction reference: a block of fn and an index in it.
func (d *decoder) instr(fn *ir.Function) *ir.Instr {
	var instrs []*ir.Instr
	if b := pick(&d.r, fn.Blocks, 0, "block"); b != nil {
		instrs = b.Instrs
	}
	return pick(&d.r, instrs, 0, "instr")
}
