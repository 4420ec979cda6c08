package solver

import (
	"fmt"
	"slices"
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

// checkFilterColumn holds the column kernel to the committed path, the
// obviously-right evaluator it replaces a scalar copy of: under ts's
// current assignment, for every constraint with exactly one variable
// open, filterColumn over dom must
//
//   - leave the domain that assign → root → unassign leaves, value by
//     value, and charge the number of values it was given;
//   - hold, for every listed slot and every value, the result the
//     committed path computes for that slot — known, always;
//   - read as a committed scalar only a slot that is known (the
//     invariant the kernel rests on);
//   - write nothing of the committed state.
//
// It reports with Errorf only, so the fuzz target's worker goroutines
// may call it.
func checkFilterColumn(t testing.TB, ts *tapeState, dom domain, label string) {
	t.Helper()
	tp := ts.t
	known0, val0 := slices.Clone(ts.known), slices.Clone(ts.val)
	// filtered is what one filterColumn call left behind.
	type filtered struct {
		ci   int
		got  domain
		list []int32
		cols [][]uint64 // per listed slot
	}
	vals := dom.appendValues(nil)
	for vi := range tp.vars {
		vi := int32(vi)
		var fs []filtered
		for ci := range tp.roots {
			if un, has := ts.unassignedIn(ci, vi); un != 1 || !has {
				continue
			}
			f := filtered{ci: ci, got: dom}
			n := ts.filterColumn(ci, vi, &f.got)
			if n != len(vals) {
				t.Errorf("%s: constraint %d var %d: charged %d for %d values", label, ci, vi, n, len(vals))
				return
			}
			if !slices.Equal(ts.known, known0) || !slices.Equal(ts.val, val0) {
				t.Errorf("%s: constraint %d var %d: the filter wrote committed state", label, ci, vi)
				return
			}
			c := ts.col
			f.list = slices.Clone(c.list)
			listed := 0
			for _, off := range c.off {
				if off > 0 {
					listed++
				}
			}
			for _, s := range f.list {
				if c.off[s] == 0 || listed != len(f.list) {
					t.Errorf("%s: constraint %d var %d: column offsets %v do not mark the list %v", label, ci, vi, c.off, f.list)
					return
				}
				op := &tp.ops[s]
				for _, a := range [3]int32{op.a0, op.a1, op.a2} {
					if a >= 0 && c.off[a] == 0 && !ts.known[a] {
						t.Errorf("%s: constraint %d var %d: slot %d reads slot %d as a committed scalar, and it is unknown", label, ci, vi, s, a)
						return
					}
				}
				f.cols = append(f.cols, slices.Clone(c.buf[c.off[s]-1:][:n]))
			}
			fs = append(fs, f)
		}
		if len(fs) == 0 {
			continue
		}
		// The reference: commit each value, read the roots and the slots,
		// retract.
		wants := make([]domain, len(fs))
		for fi := range wants {
			wants[fi] = dom
		}
		for i, v := range vals {
			ts.assign(vi, v)
			for fi, f := range fs {
				if k, r := ts.root(f.ci); k && r == 0 {
					wants[fi].clear(v)
				}
				for li, s := range f.list {
					if !ts.known[s] || ts.val[s] != f.cols[li][i] {
						t.Errorf("%s: constraint %d var %d=%d slot %d (%v %v i%d): column %d, committed (%v, %d)",
							label, f.ci, vi, v, s, tp.ops[s].kind, tp.ops[s].op, tp.ops[s].bits, f.cols[li][i], ts.known[s], ts.val[s])
						return
					}
				}
			}
			ts.unassign(vi)
		}
		for fi, f := range fs {
			if f.got != wants[fi] {
				t.Errorf("%s: constraint %d var %d: column-filtered domain %x, value by value %x", label, f.ci, vi, f.got, wants[fi])
			}
		}
	}
}

// checkFilterColumnAllSubsets runs checkFilterColumn under every
// assignment of a subset of the tape's variables (values drawn from
// seed), over the full domain and over a sparse one.
func checkFilterColumnAllSubsets(t testing.TB, tp *tape, seed uint64, label string) {
	t.Helper()
	sparse := domain{seed | 1, seed * 0x9e3779b97f4a7c15, ^seed, seed >> 7}
	for mask := 0; mask < 1<<len(tp.vars); mask++ {
		ts := newTapeState(tp)
		for vi := range tp.vars {
			if mask&(1<<vi) != 0 {
				ts.assign(int32(vi), (seed>>uint(8*vi%57))&0xff)
			}
		}
		checkFilterColumn(t, ts, fullDomain(8), fmt.Sprintf("%s mask %b full", label, mask))
		checkFilterColumn(t, ts, sparse, fmt.Sprintf("%s mask %b sparse", label, mask))
	}
}

// lit builds an expression node with no builder in the way: nothing is
// folded, canonicalised or rejected, so every tapeOp kind and operator
// reaches the tape at every width asked for.
func lit(kind expr.Kind, op ir.Op, bits int, args ...*expr.Expr) *expr.Expr {
	return &expr.Expr{Kind: kind, Op: op, Bits: bits, Args: args}
}

func litConst(bits int, v uint64) *expr.Expr {
	return &expr.Expr{Kind: expr.KConst, Bits: bits, Val: ir.Mask(bits, v)}
}

// litWiden brings an 8-bit node to the given width: trunc below 8, sext
// above (so the high bits are exercised).
func litWiden(e *expr.Expr, bits int) *expr.Expr {
	switch {
	case bits < 8:
		return lit(expr.KCast, ir.OpTrunc, bits, e)
	case bits > 8:
		return lit(expr.KCast, ir.OpSExt, bits, e)
	}
	return e
}

var (
	allBinOps = []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr}
	allCmpOps = []ir.Op{ir.OpEq, ir.OpNe, ir.OpULt, ir.OpULe, ir.OpUGt, ir.OpUGe,
		ir.OpSLt, ir.OpSLe, ir.OpSGt, ir.OpSGe}
)

// TestFilterColumnMatchesCommitted is the kernel's differential test
// (checkFilterColumn) over three sources of tapes: hand-built ones that
// reach every tapeOp kind and every operator — the specialised loops and
// the ir.Eval* fallbacks alike — at 1, 8, 32 and 64 bits, with operands
// that are columns, committed scalars and constants (zero divisors,
// shift counts at and past the width, all-ones and sign-bit patterns,
// table reads past the table); the fuzz DAG generator; and the query
// stream captured from wc.
func TestFilterColumnMatchesCommitted(t *testing.T) {
	t.Run("ops", func(t *testing.T) {
		x := &expr.Var{Name: "x", Bits: 8, Idx: 0}
		y := &expr.Var{Name: "y", Bits: 8, Idx: 1}
		xn := &expr.Expr{Kind: expr.KVar, Bits: 8, V: x}
		yn := &expr.Expr{Kind: expr.KVar, Bits: 8, V: y}
		vs := lit(expr.KBin, ir.OpAdd, 8, xn, yn).VarSet()
		short := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
		seeds := []uint64{0x0101, 0x07c8, 0, 0xffff, 0x80fe}
		if testing.Short() {
			seeds = seeds[:2]
		}
		for _, w := range []int{1, 8, 32, 64} {
			a := litWiden(xn, w)
			others := []*expr.Expr{
				litConst(w, 0), litConst(w, 1), litConst(w, uint64(w-1)), litConst(w, uint64(w)), litConst(w, uint64(w+1)),
				litConst(w, ^uint64(0)), litConst(w, 1<<uint(w-1)), litConst(w, 0x5a5a5a5a5a5a5a5a),
				litWiden(yn, w), // a committed scalar with x open, the column with y open
				litWiden(lit(expr.KBin, ir.OpAdd, 8, lit(expr.KBin, ir.OpMul, 8, xn, litConst(8, 37)), litConst(8, 11)), w), // a second column
			}
			for bi, b := range others {
				var cs []*expr.Expr
				for _, pair := range [][2]*expr.Expr{{a, b}, {b, a}} {
					for _, op := range allBinOps {
						cs = append(cs, lit(expr.KBin, op, w, pair[0], pair[1]))
					}
					for _, op := range allCmpOps {
						cs = append(cs, lit(expr.KCmp, op, 1, pair[0], pair[1]))
					}
					// Selects on a condition that is a column, then one the
					// other operand decides.
					cs = append(cs,
						lit(expr.KSelect, 0, w, lit(expr.KCmp, ir.OpULt, 1, xn, litConst(8, 100)), pair[0], pair[1]),
						lit(expr.KSelect, 0, w, lit(expr.KCmp, ir.OpNe, 1, b, litConst(w, 0)), pair[0], pair[1]))
				}
				for _, to := range []int{1, 8, 32, 64} {
					switch {
					case to > w:
						cs = append(cs, lit(expr.KCast, ir.OpZExt, to, a), lit(expr.KCast, ir.OpSExt, to, a),
							lit(expr.KCast, ir.OpZExt, to, b), lit(expr.KCast, ir.OpSExt, to, b))
					case to < w:
						// The narrowing zext is malformed; the tape evaluates it all the same.
						cs = append(cs, lit(expr.KCast, ir.OpTrunc, to, a), lit(expr.KCast, ir.OpTrunc, to, b),
							lit(expr.KCast, ir.OpZExt, to, a))
					}
				}
				for _, table := range [][]uint64{short, classTable()} {
					for _, idx := range []*expr.Expr{a, b} {
						cs = append(cs, &expr.Expr{Kind: expr.KRead, Bits: 8, Args: []*expr.Expr{idx}, Table: table})
					}
				}
				tp := (&tapeScratch{}).compile(vs, cs)
				for _, seed := range seeds {
					checkFilterColumnAllSubsets(t, tp, seed, fmt.Sprintf("i%d operand %d seed %#x", w, bi, seed))
				}
			}
		}
	})

	t.Run("fuzzdag", func(t *testing.T) {
		rng := uint64(0x243f6a8885a308d3)
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		dags := 2000
		if testing.Short() {
			dags = 200
		}
		for i := 0; i < dags; i++ {
			data := make([]byte, 8+next()%40)
			for j := range data {
				data[j] = byte(next())
			}
			b := expr.NewBuilder()
			cs := buildFuzzDAG(b, vars(4), data)
			if len(cs) == 0 {
				continue
			}
			for gi, g := range PartitionOf(cs).Groups() {
				checkFilterColumnAllSubsets(t, compileGroup(g), next(), fmt.Sprintf("dag %d group %d", i, gi))
			}
		}
	})

	t.Run("wc", func(t *testing.T) {
		if CapturedWcQueries == nil {
			t.Skip("no captured stream (external test package not linked)")
		}
		seen := make(map[Fingerprint]bool)
		defer func() { t.Logf("%d distinct groups", len(seen)) }()
		for qi, q := range CapturedWcQueries(t) {
			for _, g := range PartitionOf(q).Groups() {
				if seen[g.fp] {
					continue
				}
				seen[g.fp] = true
				checkFilterColumnAllSubsets(t, compileGroup(g), uint64(qi)*0x9e3779b97f4a7c15+1, fmt.Sprintf("wc query %d", qi))
			}
		}
	})
}
