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
//   - on the column path, hold, for every listed slot and every value,
//     the result the committed path computes for that slot — known,
//     always;
//   - on the column path, read as a committed scalar only a slot that is
//     known (the invariant the kernel rests on), where a select on a
//     committed condition reads only its chosen arm on a tape that keeps
//     live sets;
//   - write nothing of the committed state.
//
// A filter answered by a comparison mask (filterCmp) evaluates no column,
// so only its domain and charge are checked. It returns how many filters
// took the mask and how many the columns. It reports with Errorf only, so
// the fuzz target's worker goroutines may call it.
func checkFilterColumn(t testing.TB, ts *tapeState, dom domain, label string) (masked, columns int) {
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
				return masked, columns
			}
			if !slices.Equal(ts.known, known0) || !slices.Equal(ts.val, val0) {
				t.Errorf("%s: constraint %d var %d: the filter wrote committed state", label, ci, vi)
				return masked, columns
			}
			c := ts.col
			if c.masked {
				masked++
				fs = append(fs, f)
				continue
			}
			columns++
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
					return masked, columns
				}
				op := &tp.ops[s]
				reads := [3]int32{op.a0, op.a1, op.a2}
				if tp.tracksLive && op.kind == expr.KSelect && ts.known[op.a0] {
					// A committed condition: the select is its chosen
					// arm's column and reads nothing else.
					arm := op.a2
					if ts.val[op.a0] != 0 {
						arm = op.a1
					}
					if c.off[s] != c.off[arm] {
						t.Errorf("%s: constraint %d var %d: select slot %d on a committed condition is not its chosen arm %d", label, ci, vi, s, arm)
						return masked, columns
					}
					reads = [3]int32{arm, -1, -1}
				}
				for _, a := range reads {
					if a >= 0 && c.off[a] == 0 && !ts.known[a] {
						t.Errorf("%s: constraint %d var %d: slot %d reads slot %d as a committed scalar, and it is unknown", label, ci, vi, s, a)
						return masked, columns
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
						return masked, columns
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
	return masked, columns
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

	// The comparison mask's shapes: the open byte, or its zero-extension,
	// compared with a committed value, by every operator on either side,
	// at the byte's own width and wider — constants at the edges of the
	// byte, of the signed range and past 256, and a second byte committed
	// or open — and each comparison negated by a committed bit. Every
	// filter must take the mask, and leave the domain the committed path
	// leaves.
	t.Run("atomic", func(t *testing.T) {
		masked := 0
		for _, vb := range []int{1, 8} {
			x := &expr.Var{Name: "x", Bits: vb, Idx: 0}
			y := &expr.Var{Name: "y", Bits: vb, Idx: 1}
			xn := &expr.Expr{Kind: expr.KVar, Bits: vb, V: x}
			yn := &expr.Expr{Kind: expr.KVar, Bits: vb, V: y}
			vs := lit(expr.KBin, ir.OpAdd, vb, xn, yn).VarSet()
			for _, w := range []int{vb, vb + 1, 16, 32, 64} {
				a, b := xn, yn
				if w > vb {
					a, b = lit(expr.KCast, ir.OpZExt, w, xn), lit(expr.KCast, ir.OpZExt, w, yn)
				}
				others := []*expr.Expr{b}
				for _, k := range []uint64{0, 1, 126, 127, 128, 129, 254, 255, 256, 1<<uint(w-1) - 1, 1 << uint(w-1), 1<<uint(w-1) + 1, ^uint64(0) - 1, ^uint64(0), 0x5a5a5a5a5a5a5a5a} {
					others = append(others, litConst(w, k))
				}
				var cs []*expr.Expr
				for _, k := range others {
					for _, op := range allCmpOps {
						for _, c := range []*expr.Expr{lit(expr.KCmp, op, 1, a, k), lit(expr.KCmp, op, 1, k, a)} {
							// The comparison, and its negation by a committed bit.
							cs = append(cs, c, lit(expr.KBin, ir.OpXor, 1, c, litConst(1, 1)), lit(expr.KBin, ir.OpXor, 1, litConst(1, 0), c))
						}
					}
				}
				tp := (&tapeScratch{}).compile(vs, cs)
				full := fullDomain(vb)
				sparse := domain{0x8000_0000_0000_0001, 0x5a5a_5a5a_5a5a_5a5a, 0xffff_0000_ffff_0000, 0x8000_0000_8000_0001}
				for i := range sparse {
					sparse[i] &= full[i]
				}
				yvs := []uint64{0, 1, 127, 128, 255}
				if testing.Short() {
					yvs = yvs[2:4]
				}
				for _, yv := range yvs {
					for mask := 0; mask < 4; mask++ {
						ts := newTapeState(tp)
						if mask&1 != 0 {
							ts.assign(0, ir.Mask(vb, yv+3))
						}
						if mask&2 != 0 {
							ts.assign(1, ir.Mask(vb, yv))
						}
						for _, dom := range []domain{full, sparse} {
							label := fmt.Sprintf("x:i%d at i%d y=%d mask %b dom %x", vb, w, yv, mask, dom)
							m, c := checkFilterColumn(t, ts, dom, label)
							if c != 0 {
								t.Errorf("%s: %d comparisons of the open byte with a committed value took the columns", label, c)
							}
							masked += m
						}
					}
				}
			}
		}
		if masked == 0 {
			t.Error("no filter took the comparison mask")
		}
		t.Logf("%d filters took the comparison mask", masked)
	})

	t.Run("fuzzdag", func(t *testing.T) {
		fuzzDAGGroups(func(tp *tape, seed uint64, label string) {
			checkFilterColumnAllSubsets(t, tp, seed, label)
		})
	})

	t.Run("wc", func(t *testing.T) {
		wcGroups(t, func(tp *tape, seed uint64, label string) {
			checkFilterColumnAllSubsets(t, tp, seed, label)
		})
	})
}

// TestSkippedFilterIsNoOp holds the forward check's skip rule to its
// claim: once the DFS binds vi, a constraint unary in a remaining byte
// that does not mention vi has already filtered that byte under the same
// assignment, so filtering by it again removes nothing. The walk is
// searchTape's — propagation, the initial filter, smallest domain first,
// ascending values, the skip rule — except that it does not stop at a
// model, and it binds at most maxBinds values a group. Wherever the rule
// skips a filter, the filter runs on a copy of the domain, which must
// come back unchanged.
func TestSkippedFilterIsNoOp(t *testing.T) {
	const maxBinds = 1000
	skipped := 0
	check := func(t *testing.T, tp *tape, label string) {
		domains := make([]domain, len(tp.vars))
		for vi, v := range tp.vars {
			domains[vi] = fullDomain(v.Bits)
		}
		if !propagateDomains(tp, domains) {
			return
		}
		ts := newTapeState(tp)
		filter := func(vi, bound int32) bool {
			d := &domains[vi]
			for ci := range tp.roots {
				if un, has := ts.unassignedIn(ci, vi); un != 1 || !has {
					continue
				}
				if bound >= 0 && !tp.mentions(ci, bound) {
					skipped++
					if c := *d; ts.filterColumn(ci, vi, &c) > 0 && c != *d {
						t.Errorf("%s: after binding var %d, constraint %d still filters var %d: %x → %x", label, bound, ci, vi, *d, c)
					}
					continue
				}
				if ts.filterColumn(ci, vi, d); d.count() == 0 {
					return false
				}
			}
			return true
		}
		for vi := range tp.vars {
			if !filter(int32(vi), -1) {
				return
			}
		}
		binds := 0
		var walk func(remaining []int32)
		walk = func(remaining []int32) {
			best := 0
			for i, rv := range remaining {
				if domains[rv].count() < domains[remaining[best]].count() {
					best = i
				}
			}
			vi := remaining[best]
			rest := append(slices.Clone(remaining[:best]), remaining[best+1:]...)
			saved := slices.Clone(domains)
			for _, val := range domains[vi].appendValues(nil) {
				if binds++; binds > maxBinds {
					break
				}
				ts.assign(vi, val)
				held := true
				for ci := range tp.roots {
					if k, r := ts.root(ci); k && r == 0 {
						held = false
					}
				}
				if !held {
					continue
				}
				alive := true
				for _, rv := range rest {
					if alive = filter(rv, vi); !alive {
						break
					}
				}
				if alive && len(rest) > 0 {
					walk(rest)
				}
				copy(domains, saved)
			}
			ts.unassign(vi)
		}
		all := make([]int32, len(tp.vars))
		for i := range all {
			all[i] = int32(i)
		}
		walk(all)
	}
	t.Run("lastslash", func(t *testing.T) {
		for i, tp := range lastSlashGroups() {
			check(t, tp, fmt.Sprintf("group %d", i))
		}
	})
	t.Run("fuzzdag", func(t *testing.T) {
		fuzzDAGGroups(func(tp *tape, _ uint64, label string) { check(t, tp, label) })
	})
	t.Run("wc", func(t *testing.T) {
		wcGroups(t, func(tp *tape, _ uint64, label string) { check(t, tp, label) })
	})
	t.Logf("%d skipped filters checked", skipped)
	if skipped == 0 {
		t.Error("the skip rule never fired: the groups no longer exercise it")
	}
}

// fuzzDAGGroups calls fn on each group of 2,000 DAGs from buildFuzzDAG
// over four variables (200 under -short), compiled, the same stream on
// every run, with a seed for fn's own choices.
func fuzzDAGGroups(fn func(tp *tape, seed uint64, label string)) {
	fuzzDAGGroupsOf(func(g *Group, seed uint64, label string) { fn(compileGroup(g), seed, label) })
}

// fuzzDAGGroupsOf is fuzzDAGGroups handing fn each group uncompiled.
func fuzzDAGGroupsOf(fn func(g *Group, seed uint64, label string)) {
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
		cs := buildFuzzDAG(expr.NewBuilder(), vars(4), data)
		if len(cs) == 0 {
			continue
		}
		for gi, g := range PartitionOf(cs).Groups() {
			fn(g, next(), fmt.Sprintf("dag %d group %d", i, gi))
		}
	}
}

// wcGroups calls fn on each distinct group of the query stream captured
// from wc, compiled, and skips t when the stream is not linked in.
func wcGroups(t *testing.T, fn func(tp *tape, seed uint64, label string)) {
	wcGroupsOf(t, func(g *Group, seed uint64, label string) { fn(compileGroup(g), seed, label) })
}

// wcGroupsOf is wcGroups handing fn each group uncompiled.
func wcGroupsOf(t *testing.T, fn func(g *Group, seed uint64, label string)) {
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
			fn(g, uint64(qi)*0x9e3779b97f4a7c15+1, fmt.Sprintf("wc query %d", qi))
		}
	}
}
