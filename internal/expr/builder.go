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

// operand is what the shared identity table (ir/algebra.go) sees of e.
func (e *Expr) operand() ir.Operand {
	if e.Kind == KConst {
		return ir.Operand{Val: e.Val, Const: true}
	}
	return ir.Operand{}
}

// Bin builds a binary arithmetic/bitwise node with on-the-fly folding.
func (b *Builder) Bin(op ir.Op, x, y *Expr) *Expr {
	if x.Bits != y.Bits {
		panic(fmt.Sprintf("expr: %s width mismatch %d vs %d", op, x.Bits, y.Bits))
	}
	bits := x.Bits
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
	// Division by a constant zero stays symbolic: the engine checks it
	// before building.
	switch f := ir.FoldBin(op, bits, x.operand(), y.operand(), x == y); f.Kind {
	case ir.FoldArg:
		return x
	case ir.FoldConst:
		return b.Const(bits, f.Val)
	}
	// Builder only, as both read x's term and rebuild it, where the IR
	// would have to add instructions: demanded bits, and xor(xor(e, c1),
	// c2) -> xor(e, c1^c2), double negation among them (the IR keeps an
	// in-place xor chain).
	if yc, ok := y.IsConst(); ok {
		if op == ir.OpAnd {
			if d := demand(b, x, yc, demandDepth); d != x {
				return b.Bin(ir.OpAnd, d, y)
			}
		}
		if op == ir.OpXor && x.Kind == KBin && x.Op == ir.OpXor {
			if c1, ok := x.Args[1].IsConst(); ok {
				return b.Bin(ir.OpXor, x.Args[0], b.Const(bits, c1^yc))
			}
		}
	}
	return b.intern(argKey(KBin, op, bits, x, y), func() *Expr {
		args := []*Expr{x, y}
		return &Expr{Kind: KBin, Bits: bits, Op: op, Args: args, vset: unionArgSets(args)}
	})
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
	switch f := ir.FoldCmp(op, x.Bits, x.operand(), y.operand(), x == y); f.Kind {
	case ir.FoldArg:
		return x
	case ir.FoldConst:
		return b.Bool(f.Val == 1)
	case ir.FoldNot:
		return b.Not(x)
	case ir.FoldOp:
		return b.Cmp(f.Op, x, y)
	}
	// Builder only, as they read x's term: a zext compares at its
	// source's width when the constant fits, which keeps solver terms
	// small (the IR keeps a compare's width), and an ite with constant
	// arms folds into its condition (not ported to the IR, whose output
	// the compiled-IR pins hold).
	yc, yConst := y.IsConst()
	if yConst && x.Kind == KCast && x.Op == ir.OpZExt {
		src := x.Args[0]
		switch op {
		case ir.OpEq, ir.OpNe, ir.OpULt, ir.OpULe, ir.OpUGt, ir.OpUGe:
			if yc <= ir.Mask(src.Bits, ^uint64(0)) {
				return b.Cmp(op, src, b.Const(src.Bits, yc))
			}
			if op == ir.OpEq || op == ir.OpNe {
				return b.Bool(op == ir.OpNe) // a constant the zext never reaches
			}
		}
	}
	if yConst && x.Kind == KSelect {
		t, tOk := x.Args[1].IsConst()
		f, fOk := x.Args[2].IsConst()
		if tOk && fOk {
			tr := ir.EvalCmp(op, x.Bits, t, yc)
			fr := ir.EvalCmp(op, x.Bits, f, yc)
			switch {
			case tr == fr:
				return b.Bool(tr)
			case tr:
				return x.Args[0]
			default:
				return b.Not(x.Args[0])
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
	switch fd := ir.FoldSelect(t.Bits, c.operand(), t.operand(), f.operand(), t == f); fd.Kind {
	case ir.FoldArg:
		return [3]*Expr{c, t, f}[fd.Arg]
	case ir.FoldNot:
		return b.Not(c)
	}
	// Builder only: a boolean select with one constant arm is logic,
	// ite(c, x, 0) = c & x, ite(c, 1, x) = c | x and so on, terms the
	// other rules and the solver see through. In the IR a select and an
	// and are one instruction each to the executor.
	if t.Bits == 1 {
		switch {
		case f.IsFalse():
			return b.Bin(ir.OpAnd, c, t)
		case t.IsTrue():
			return b.Bin(ir.OpOr, c, f)
		case t.IsFalse():
			return b.Bin(ir.OpAnd, b.Not(c), f)
		case f.IsTrue():
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
	switch f := ir.FoldCast(op, x.Bits, toBits, x.operand()); f.Kind {
	case ir.FoldArg:
		return x
	case ir.FoldConst:
		return b.Const(toBits, f.Val)
	}
	if x.Kind == KCast {
		inner := x.Args[0]
		switch f := ir.FoldCastChain(op, x.Op, inner.Bits, toBits); f.Kind {
		case ir.FoldArg:
			return inner
		case ir.FoldOp:
			return b.Cast(f.Op, inner, toBits)
		}
	}
	// Builder only: a cast through a select with constant arms is a
	// select of constants, which Cmp folds into its condition. An IR
	// select may have other users, so the rewrite would copy it.
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
