package expr

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"overify/internal/ir"
)

// Builder interns expression nodes and applies canonicalizing
// simplifications on construction. All expressions flowing through one
// symbolic-execution run must come from one Builder, so that
// structurally equal terms are pointer-equal and node ids are canonical
// cache keys across the whole run.
//
// Among the canonicalizations is demanded bits: `and x, C` with a
// constant C rebuilds x for the bits of C only (demand.go), so that a
// constraint names only the variables those bits come from and the
// solver's independence partition does not join bytes the constraint
// never reads.
//
// A Builder made with NewConcurrentBuilder is safe for concurrent use:
// the parallel symbolic-execution engine shares one across all workers,
// which is what keeps the shared solver cache coherent (identical
// constraints get identical ids no matter which worker built them).
// NewBuilder returns the single-goroutine variant, which skips the
// synchronized interning map on the per-expression hot path — serial
// t_verify measurements pay no concurrency tax.
type Builder struct {
	concurrent bool
	plain      map[internKey]*Expr // single-goroutine interning
	shared     sync.Map            // concurrent interning: internKey -> *Expr
	nextID     atomic.Int64
	// nextVarOrd assigns each distinct variable a dense builder-local
	// ordinal — the bit position in every node's interned VarSet. A
	// losing racer in concurrent interning wastes an ordinal (harmless:
	// the bitset is merely one bit sparser).
	nextVarOrd atomic.Int64

	// nodesBuilt counts interning misses, a proxy for symbolic work.
	nodesBuilt atomic.Int64
	// cacheHits counts interning hits (structural sharing).
	cacheHits atomic.Int64

	// small holds the interned 1-, 8-, 32- and 64-bit constants below
	// smallConsts, filled as Const first interns each: the constants the
	// engine builds on nearly every instruction skip the interning map.
	small [4][smallConsts]atomic.Pointer[Expr]
}

// smallConsts bounds the values Builder.small holds per width.
const smallConsts = 256

// smallWidth is the row of Builder.small for a width, or -1.
func smallWidth(bits int) int {
	switch bits {
	case 1:
		return 0
	case 8:
		return 1
	case 32:
		return 2
	case 64:
		return 3
	}
	return -1
}

// NewBuilder returns an empty builder for single-goroutine use.
func NewBuilder() *Builder {
	return &Builder{plain: make(map[internKey]*Expr)}
}

// NewConcurrentBuilder returns an empty builder safe for concurrent
// interning from many goroutines.
func NewConcurrentBuilder() *Builder {
	return &Builder{concurrent: true}
}

// NodesBuilt returns the number of interning misses (distinct nodes).
func (b *Builder) NodesBuilt() int64 { return b.nodesBuilt.Load() }

// CacheHits returns the number of interning hits (structural sharing).
func (b *Builder) CacheHits() int64 { return b.cacheHits.Load() }

// internKey is the structural identity of a node: kind, operator, width
// and the constant's value or the operands' ids. It is a comparable
// struct, so a lookup hashes a few words instead of rendering them to
// text; only a variable's name and a read's table contents ride in the
// string.
type internKey struct {
	kind Kind
	op   ir.Op
	bits int
	n    [3]uint64 // KConst: n[0] is the value; otherwise the operands' ids
	s    string    // KVar: the name; KRead: the table cells, fixed width
}

func argKey(kind Kind, op ir.Op, bits int, args ...*Expr) internKey {
	k := internKey{kind: kind, op: op, bits: bits}
	for i, a := range args {
		k.n[i] = uint64(a.id)
	}
	return k
}

func (b *Builder) intern(key internKey, mk func() *Expr) *Expr {
	if !b.concurrent {
		if e, ok := b.plain[key]; ok {
			b.cacheHits.Add(1)
			return e
		}
		e := mk()
		e.id = b.nextID.Add(1)
		b.plain[key] = e
		b.nodesBuilt.Add(1)
		return e
	}
	if e, ok := b.shared.Load(key); ok {
		b.cacheHits.Add(1)
		return e.(*Expr)
	}
	e := mk()
	e.id = b.nextID.Add(1)
	if prev, loaded := b.shared.LoadOrStore(key, e); loaded {
		// Another worker interned the same term first; its node (and id)
		// wins so the term stays pointer-canonical.
		b.cacheHits.Add(1)
		return prev.(*Expr)
	}
	b.nodesBuilt.Add(1)
	return e
}

// Const builds a constant of the given width.
// A table hit is the node intern returned for the same constant, and is
// counted as the interning hit it stands for.
func (b *Builder) Const(bits int, v uint64) *Expr {
	v = ir.Mask(bits, v)
	var slot *atomic.Pointer[Expr]
	if row := smallWidth(bits); row >= 0 && v < smallConsts {
		slot = &b.small[row][v]
		if e := slot.Load(); e != nil {
			b.cacheHits.Add(1)
			return e
		}
	}
	key := internKey{kind: KConst, bits: bits, n: [3]uint64{v}}
	e := b.intern(key, func() *Expr {
		return &Expr{Kind: KConst, Bits: bits, Val: v, vset: emptyVarSet}
	})
	if slot != nil {
		slot.Store(e)
	}
	return e
}

// True is the 1-bit constant 1.
func (b *Builder) True() *Expr { return b.Const(1, 1) }

// False is the 1-bit constant 0.
func (b *Builder) False() *Expr { return b.Const(1, 0) }

// Bool converts a Go bool to a 1-bit constant.
func (b *Builder) Bool(v bool) *Expr {
	if v {
		return b.True()
	}
	return b.False()
}

// Var builds (or returns) the node for a symbolic variable.
func (b *Builder) Var(v *Var) *Expr {
	key := internKey{kind: KVar, s: v.Name}
	return b.intern(key, func() *Expr {
		ord := int32(b.nextVarOrd.Add(1) - 1)
		return &Expr{Kind: KVar, Bits: v.Bits, V: v, vset: singletonVarSet(v, ord)}
	})
}

// Bin builds a binary arithmetic/bitwise node with on-the-fly folding.
func (b *Builder) Bin(op ir.Op, x, y *Expr) *Expr {
	if x.Bits != y.Bits {
		panic(fmt.Sprintf("expr: %s width mismatch %d vs %d", op, x.Bits, y.Bits))
	}
	bits := x.Bits
	// Constant folding (division by zero stays symbolic: the engine
	// checks it before building).
	if xc, ok := x.IsConst(); ok {
		if yc, ok2 := y.IsConst(); ok2 {
			if r, okDiv := ir.EvalBin(op, bits, xc, yc); okDiv {
				return b.Const(bits, r)
			}
		}
	}
	// Canonicalize: constant on the right for commutative ops; otherwise
	// order operands by node id for interning stability.
	if op.IsCommutative() {
		_, xConst := x.IsConst()
		_, yConst := y.IsConst()
		switch {
		case xConst && !yConst:
			x, y = y, x
		case !xConst && !yConst && x.id > y.id:
			x, y = y, x
		}
	}
	if e := simplifyBin(b, op, x, y); e != nil {
		return e
	}
	return b.intern(argKey(KBin, op, bits, x, y), func() *Expr {
		args := []*Expr{x, y}
		return &Expr{Kind: KBin, Bits: bits, Op: op, Args: args, vset: unionArgSets(args)}
	})
}

func simplifyBin(b *Builder, op ir.Op, x, y *Expr) *Expr {
	yc, yConst := y.IsConst()
	bits := x.Bits
	allOnes := ir.Mask(bits, ^uint64(0))
	switch op {
	case ir.OpAdd:
		if yConst && yc == 0 {
			return x
		}
	case ir.OpSub:
		if yConst && yc == 0 {
			return x
		}
		if x == y {
			return b.Const(bits, 0)
		}
	case ir.OpMul:
		if yConst && yc == 0 {
			return b.Const(bits, 0)
		}
		if yConst && yc == 1 {
			return x
		}
	case ir.OpAnd:
		if yConst && yc == 0 {
			return b.Const(bits, 0)
		}
		if yConst && yc == allOnes {
			return x
		}
		if yConst {
			if d := demand(b, x, yc, demandDepth); d != x {
				return b.Bin(ir.OpAnd, d, y)
			}
		}
		if x == y {
			return x
		}
	case ir.OpOr:
		if yConst && yc == 0 {
			return x
		}
		if yConst && yc == allOnes {
			return b.Const(bits, allOnes)
		}
		if x == y {
			return x
		}
	case ir.OpXor:
		if yConst && yc == 0 {
			return x
		}
		if x == y {
			return b.Const(bits, 0)
		}
		// Double negation: xor(xor(e, c1), c2) -> xor(e, c1^c2).
		if x.Kind == KBin && x.Op == ir.OpXor && yConst {
			if c1, ok := x.Args[1].IsConst(); ok {
				return b.Bin(ir.OpXor, x.Args[0], b.Const(bits, c1^yc))
			}
		}
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		if yConst && yc == 0 {
			return x
		}
	case ir.OpUDiv, ir.OpSDiv:
		if yConst && yc == 1 {
			return x
		}
	case ir.OpURem:
		if yConst && yc == 1 {
			return b.Const(bits, 0)
		}
	}
	return nil
}

// Not negates a 1-bit expression.
func (b *Builder) Not(x *Expr) *Expr {
	if x.Bits != 1 {
		panic("expr: Not on non-boolean")
	}
	return b.Bin(ir.OpXor, x, b.True())
}

// Cmp builds a comparison node (1-bit result) with folding.
func (b *Builder) Cmp(op ir.Op, x, y *Expr) *Expr {
	if x.Bits != y.Bits {
		panic(fmt.Sprintf("expr: %s width mismatch %d vs %d", op, x.Bits, y.Bits))
	}
	if xc, ok := x.IsConst(); ok {
		if yc, ok2 := y.IsConst(); ok2 {
			return b.Bool(ir.EvalCmp(op, x.Bits, xc, yc))
		}
	}
	if x == y {
		switch op {
		case ir.OpEq, ir.OpULe, ir.OpUGe, ir.OpSLe, ir.OpSGe:
			return b.True()
		default:
			return b.False()
		}
	}
	// Boolean-typed comparisons collapse: (x:i1 == 1) -> x, etc.
	if x.Bits == 1 {
		if yc, ok := y.IsConst(); ok {
			switch {
			case op == ir.OpEq && yc == 1, op == ir.OpNe && yc == 0:
				return x
			case op == ir.OpEq && yc == 0, op == ir.OpNe && yc == 1:
				return b.Not(x)
			}
		}
	}
	// (zext e1 to N) cmp const: compare at the source width when the
	// constant fits (this keeps solver terms small).
	if x.Kind == KCast && x.Op == ir.OpZExt {
		src := x.Args[0]
		if yc, ok := y.IsConst(); ok && yc <= ir.Mask(src.Bits, ^uint64(0)) {
			switch op {
			case ir.OpEq, ir.OpNe, ir.OpULt, ir.OpULe, ir.OpUGt, ir.OpUGe:
				return b.Cmp(op, src, b.Const(src.Bits, yc))
			}
		}
		// zext(x) == const that does not fit: statically false.
		if yc, ok := y.IsConst(); ok && yc > ir.Mask(src.Bits, ^uint64(0)) {
			switch op {
			case ir.OpEq:
				return b.False()
			case ir.OpNe:
				return b.True()
			}
		}
	}
	// ite(c, k1, k2) cmp const folds into c or !c when arms are consts.
	if x.Kind == KSelect {
		t, tOk := x.Args[1].IsConst()
		f, fOk := x.Args[2].IsConst()
		if tOk && fOk {
			if yc, ok := y.IsConst(); ok {
				tr := ir.EvalCmp(op, x.Bits, t, yc)
				fr := ir.EvalCmp(op, x.Bits, f, yc)
				switch {
				case tr && fr:
					return b.True()
				case !tr && !fr:
					return b.False()
				case tr && !fr:
					return x.Args[0]
				default:
					return b.Not(x.Args[0])
				}
			}
		}
	}
	return b.intern(argKey(KCmp, op, x.Bits, x, y), func() *Expr {
		args := []*Expr{x, y}
		return &Expr{Kind: KCmp, Bits: 1, Op: op, Args: args, vset: unionArgSets(args)}
	})
}

// Select builds ite(c, t, f).
func (b *Builder) Select(c, t, f *Expr) *Expr {
	if c.Bits != 1 {
		panic("expr: select cond must be 1 bit")
	}
	if t.Bits != f.Bits {
		panic("expr: select arm width mismatch")
	}
	if c.IsTrue() {
		return t
	}
	if c.IsFalse() {
		return f
	}
	if t == f {
		return t
	}
	// Boolean select is logic: ite(c, 1, 0) = c; ite(c, 0, 1) = !c;
	// ite(c, x, 0) = c & x; ite(c, 1, x) = c | x; etc.
	if t.Bits == 1 {
		if t.IsTrue() && f.IsFalse() {
			return c
		}
		if t.IsFalse() && f.IsTrue() {
			return b.Not(c)
		}
		if f.IsFalse() {
			return b.Bin(ir.OpAnd, c, t)
		}
		if t.IsTrue() {
			return b.Bin(ir.OpOr, c, f)
		}
		if t.IsFalse() {
			return b.Bin(ir.OpAnd, b.Not(c), f)
		}
		if f.IsTrue() {
			return b.Bin(ir.OpOr, b.Not(c), t)
		}
	}
	return b.intern(argKey(KSelect, 0, t.Bits, c, t, f), func() *Expr {
		args := []*Expr{c, t, f}
		return &Expr{Kind: KSelect, Bits: t.Bits, Args: args, vset: unionArgSets(args)}
	})
}

// Cast builds zext/sext/trunc of x to toBits.
func (b *Builder) Cast(op ir.Op, x *Expr, toBits int) *Expr {
	if xc, ok := x.IsConst(); ok {
		return b.Const(toBits, ir.EvalCast(op, x.Bits, toBits, xc))
	}
	if x.Bits == toBits {
		return x
	}
	// Collapse cast chains mirroring the IR simplifier.
	if x.Kind == KCast {
		inner := x.Args[0]
		switch {
		case op == ir.OpTrunc && (x.Op == ir.OpZExt || x.Op == ir.OpSExt):
			if inner.Bits == toBits {
				return inner
			}
			if inner.Bits > toBits {
				return b.Cast(ir.OpTrunc, inner, toBits)
			}
			return b.Cast(x.Op, inner, toBits)
		case op == ir.OpZExt && x.Op == ir.OpZExt:
			return b.Cast(ir.OpZExt, inner, toBits)
		case op == ir.OpSExt && x.Op == ir.OpSExt:
			return b.Cast(ir.OpSExt, inner, toBits)
		case op == ir.OpSExt && x.Op == ir.OpZExt:
			return b.Cast(ir.OpZExt, inner, toBits)
		}
	}
	// Push casts through selects with constant arms.
	if x.Kind == KSelect {
		_, tOk := x.Args[1].IsConst()
		_, fOk := x.Args[2].IsConst()
		if tOk && fOk {
			return b.Select(x.Args[0],
				b.Cast(op, x.Args[1], toBits), b.Cast(op, x.Args[2], toBits))
		}
	}
	return b.intern(argKey(KCast, op, toBits, x), func() *Expr {
		args := []*Expr{x}
		return &Expr{Kind: KCast, Bits: toBits, Op: op, Args: args, vset: unionArgSets(args)}
	})
}

// Read builds table[idx] over a concrete table. The table slice must not
// be mutated afterwards (callers snapshot writable memory).
func (b *Builder) Read(table []uint64, bits int, idx *Expr) *Expr {
	if ic, ok := idx.IsConst(); ok {
		if ic < uint64(len(table)) {
			return b.Const(bits, table[ic])
		}
		// Out-of-range constant read: the engine reports the bug before
		// building; return 0 defensively.
		return b.Const(bits, 0)
	}
	// Key on table contents: different snapshots intern separately.
	// Cells are masked to bits, so (bits+7)/8 bytes hold each.
	width := (bits + 7) / 8
	var cells strings.Builder
	cells.Grow(len(table) * width)
	for _, v := range table {
		for i := 0; i < width; i++ {
			cells.WriteByte(byte(v >> (8 * i)))
		}
	}
	key := argKey(KRead, 0, bits, idx)
	key.s = cells.String()
	return b.intern(key, func() *Expr {
		args := []*Expr{idx}
		return &Expr{Kind: KRead, Bits: bits, Args: args, Table: table, vset: unionArgSets(args)}
	})
}
