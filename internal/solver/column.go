package solver

import (
	"slices"

	"overify/internal/expr"
	"overify/internal/ir"
)

// The unary filter's evaluator. filterUnary asks one question of a
// constraint — is it false? — for every value left in the domain of the
// constraint's single unassigned byte. So the constraint's slots are
// walked once, and each is evaluated over all the values in a loop
// specialised to its operation: a column per slot, not a probe per value.
//
// The invariant this rests on: the byte is the only unassigned variable
// the constraint still reads (its root's live set, compile.go), and the
// columns are the slots whose live set is exactly that byte. Every other
// slot the kernel reads is known: a slot whose live set is empty is, and
// a slot whose live set is the byte alone reads, through each operand,
// a live set within it — except a select on a committed condition, whose
// unchosen arm may read other open bytes, and whose column is therefore
// its chosen arm's. So an operand is another column or a committed
// scalar, every column entry is known, and recompute's three-valued
// logic never comes into play: a column is plain evaluation, the same
// function as assign → root → unassign value by value, which is what
// TestFilterColumnMatchesCommitted holds it to. (On a tape that keeps no
// live sets the test is the static one: every other variable under the
// constraint is assigned, and every slot of it the byte reaches is a
// column.) A committed operand is read as a scalar (binColumnK,
// cmpColumnK), never broadcast into a column.
//
// The commonest constraint evaluates no column at all: the open byte, or
// its zero-extension, compared with a committed value K, the comparison
// or its negation at the root. Which byte values x make it hold follows
// from K alone — x = K, x ≠ K, or one interval of keys x ^ flip, flip
// being the comparison's sign bit for a signed order — so the filter is
// one mask over the domain (filterCmp, cmpkernel.go). It removes the
// values the columns would, and is charged the same count, so
// assignments, nodes and models do not move; the test holds every such
// shape, by every operator on either side, to the same value-by-value
// reference and asserts the mask fired.

// columnScratch is filterColumn's storage, reused across a solver's
// searches with the rest of its tapeScratch.
type columnScratch struct {
	off  []int32 // per slot: 1 + where its column starts in buf, 0 for a slot not listed
	list []int32 // the last filter's slots: watch[vi] ∩ csub[ci] live in vi alone, topo-ordered
	// buf is cut into columns of one word per value tried: the values
	// themselves, then one per listed slot.
	buf []uint64
	// masked is set when the last filter was a comparison mask
	// (filterCmp), which lists the slots and evaluates no column (test
	// instrumentation).
	masked bool
}

// filterColumn removes from d every value of variable vi under which
// constraint ci evaluates to zero, and returns how many values it tried
// (all of d, ascending — the unary filter's charge). vi must be the only
// unassigned variable ci still reads (tapeState.unassignedIn).
func (ts *tapeState) filterColumn(ci int, vi int32, d *domain) int {
	t, c := ts.t, ts.col
	n := d.count()
	if n == 0 {
		return 0
	}
	for _, s := range c.list {
		c.off[s] = 0
	}
	ts.freshen()
	sub := t.csub[ci]
	list := c.list[:0]
	for _, s := range t.watch[vi] {
		if sub[s>>6]&(1<<uint(s&63)) != 0 && (!t.tracksLive || ts.live[s] == 1<<uint(vi)) {
			list = append(list, s)
		}
	}
	c.list = list
	if c.masked = ts.filterCmp(ci, list, d); c.masked {
		return n
	}
	if need := (1 + len(list)) * n; cap(c.buf) < need {
		c.buf = make([]uint64, max(need, 2*cap(c.buf)))
	}
	vals := d.appendValues(c.buf[:0])
	next := n
	for _, s := range list {
		op := &t.ops[s]
		if op.kind == expr.KCast && op.op == ir.OpZExt && op.bits >= t.ops[op.a0].bits {
			// The operand's column is already masked to its own width.
			c.off[s] = c.off[op.a0]
			continue
		}
		if t.tracksLive && op.kind == expr.KSelect && ts.known[op.a0] {
			// A committed condition: the select is its chosen arm, whose
			// column is listed; the other arm may read open bytes.
			if ts.val[op.a0] != 0 {
				c.off[s] = c.off[op.a1]
			} else {
				c.off[s] = c.off[op.a2]
			}
			continue
		}
		out := c.buf[next : next+n]
		c.off[s] = int32(next + 1)
		next += n
		m := ir.Mask(int(op.bits), ^uint64(0))
		switch op.kind {
		case expr.KVar:
			copy(out, vals)
		case expr.KBin:
			x, kx := ts.operand(op.a0, n)
			y, ky := ts.operand(op.a1, n)
			switch {
			case x == nil:
				binColumnK(op.op, int(op.bits), m, out, y, kx, true)
			case y == nil:
				binColumnK(op.op, int(op.bits), m, out, x, ky, false)
			default:
				binColumn(op.op, int(op.bits), m, out, x, y)
			}
		case expr.KCmp:
			bits := int(t.ops[op.a0].bits)
			x, kx := ts.operand(op.a0, n)
			y, ky := ts.operand(op.a1, n)
			switch {
			case x == nil:
				cmpColumnK(op.op, bits, out, y, kx, true)
			case y == nil:
				cmpColumnK(op.op, bits, out, x, ky, false)
			default:
				cmpColumn(op.op, bits, out, x, y)
			}
		case expr.KSelect:
			cond, kc := ts.operand(op.a0, n)
			x, kx := ts.operand(op.a1, n)
			y, ky := ts.operand(op.a2, n)
			for i := range out {
				if at(cond, kc, i) != 0 {
					out[i] = at(x, kx, i) & m
				} else {
					out[i] = at(y, ky, i) & m
				}
			}
		case expr.KCast:
			from := int(t.ops[op.a0].bits)
			x, k := ts.operand(op.a0, n)
			for i := range out {
				out[i] = ir.EvalCast(op.op, from, int(op.bits), at(x, k, i)) & m
			}
		case expr.KRead:
			x, k := ts.operand(op.a0, n)
			for i := range out {
				out[i] = 0
				if idx := at(x, k, i); idx < uint64(len(op.table)) {
					out[i] = op.table[idx] & m
				}
			}
		}
	}
	// ci mentions vi, so its root heads a column: the last one listed.
	root, k := ts.operand(t.roots[ci], n)
	for i, v := range vals {
		if at(root, k, i) == 0 {
			d.clear(v)
		}
	}
	return n
}

// operand returns slot a's n values under the filter: its column when
// the open byte reaches it (col), otherwise its committed result —
// known, by the invariant above — as the scalar k, with col nil.
func (ts *tapeState) operand(a int32, n int) (col []uint64, k uint64) {
	c := ts.col
	if o := int(c.off[a]); o > 0 {
		return c.buf[o-1 : o-1+n], 0
	}
	return nil, ts.val[a]
}

// at is entry i of an operand as operand returns it: the column's
// entry, or the scalar k.
func at(col []uint64, k uint64, i int) uint64 {
	if col != nil {
		return col[i]
	}
	return k
}

// filterCmp is filterColumn for the commonest constraint shape: its
// columns are the open byte, optionally zero-extended, a comparison of
// that with a committed value K, and at the root the comparison itself
// or its negation (xor with a committed bit). The values the comparison
// admits are then a point (eq, ne) or one key interval (the orders, with
// the sign bit of the comparison's width flipped for a signed one), so
// the filter is one mask over the domain (cmpSummary.mask, over K alone)
// and evaluates no column. It reports whether the shape matched; the
// caller charges the same count either way.
func (ts *tapeState) filterCmp(ci int, list []int32, d *domain) bool {
	t := ts.t
	if len(list) < 2 || list[len(list)-1] != t.roots[ci] {
		return false
	}
	neg := false
	if root := &t.ops[t.roots[ci]]; root.kind == expr.KBin && root.op == ir.OpXor && root.bits == 1 {
		c, k := root.a0, root.a1
		if k == list[len(list)-2] {
			c, k = k, c
		}
		if c != list[len(list)-2] || slices.Contains(list, k) {
			return false
		}
		neg, list = ts.val[k]&1 != 0, list[:len(list)-1]
	}
	if len(list) < 2 || len(list) > 3 {
		return false
	}
	v, x, cs := &t.ops[list[0]], list[len(list)-2], list[len(list)-1]
	op := &t.ops[cs]
	if op.kind != expr.KCmp || v.kind != expr.KVar {
		return false
	}
	if len(list) == 3 {
		z := &t.ops[x]
		if z.kind != expr.KCast || z.op != ir.OpZExt || z.a0 != list[0] || z.bits < v.bits {
			return false
		}
	}
	r, signed := relOf(op.op)
	k := op.a1
	switch {
	case op.a0 == x:
	case op.a1 == x:
		k, r = op.a0, r.swap()
	default:
		return false
	}
	w := t.ops[x].bits
	if k == x || k == list[0] || t.ops[k].bits != w {
		return false
	}
	if neg {
		r = r.not()
	}
	var flip uint64
	if signed {
		flip = signBit(w)
	}
	kv := [1]uint64{ts.val[k]}
	var other cmpSummary
	other.fill(kv[:], signBit(w))
	m := other.mask(r, signed, flip, v.bits)
	for i := range d {
		d[i] &= m[i]
	}
	return true
}

// binColumn is ir.EvalBin down a column, masked to the slot's width.
// The modular operations are done in place (reducing the operands first,
// as EvalBin does, or only the result, is the same number mod 2^bits);
// the rest go through EvalBin, a division by zero reading 0 as in recompute.
func binColumn(op ir.Op, bits int, m uint64, out, x, y []uint64) {
	x, y = x[:len(out)], y[:len(out)]
	switch op {
	case ir.OpAdd:
		for i := range out {
			out[i] = (x[i] + y[i]) & m
		}
	case ir.OpSub:
		for i := range out {
			out[i] = (x[i] - y[i]) & m
		}
	case ir.OpMul:
		for i := range out {
			out[i] = (x[i] * y[i]) & m
		}
	case ir.OpAnd:
		for i := range out {
			out[i] = x[i] & y[i] & m
		}
	case ir.OpOr:
		for i := range out {
			out[i] = (x[i] | y[i]) & m
		}
	case ir.OpXor:
		for i := range out {
			out[i] = (x[i] ^ y[i]) & m
		}
	default:
		for i := range out {
			r, ok := ir.EvalBin(op, bits, x[i], y[i])
			if !ok {
				r = 0
			}
			out[i] = r & m
		}
	}
}

// binColumnK is binColumn with one operand the committed scalar k: the
// first when kFirst, else the second.
func binColumnK(op ir.Op, bits int, m uint64, out, x []uint64, k uint64, kFirst bool) {
	x = x[:len(out)]
	switch op {
	case ir.OpAdd:
		for i := range out {
			out[i] = (x[i] + k) & m
		}
	case ir.OpSub:
		if kFirst {
			for i := range out {
				out[i] = (k - x[i]) & m
			}
		} else {
			for i := range out {
				out[i] = (x[i] - k) & m
			}
		}
	case ir.OpMul:
		for i := range out {
			out[i] = (x[i] * k) & m
		}
	case ir.OpAnd:
		for i := range out {
			out[i] = x[i] & k & m
		}
	case ir.OpOr:
		for i := range out {
			out[i] = (x[i] | k) & m
		}
	case ir.OpXor:
		for i := range out {
			out[i] = (x[i] ^ k) & m
		}
	default:
		for i := range out {
			a, b := x[i], k
			if kFirst {
				a, b = k, x[i]
			}
			r, ok := ir.EvalBin(op, bits, a, b)
			if !ok {
				r = 0
			}
			out[i] = r & m
		}
	}
}

// cmpColumn is ir.EvalCmp down a column at the operands' width (both
// operands are that wide — expr.Builder refuses a mismatch — and already
// masked to it). The ten predicates are four loops: a signed order is
// the unsigned order with the sign bit flipped, and a > b is b < a.
func cmpColumn(op ir.Op, bits int, out, x, y []uint64) {
	x, y = x[:len(out)], y[:len(out)]
	var flip uint64
	switch op {
	case ir.OpSLt, ir.OpSLe, ir.OpSGt, ir.OpSGe:
		flip = 1 << uint(bits-1)
	}
	switch op {
	case ir.OpUGt, ir.OpUGe, ir.OpSGt, ir.OpSGe:
		x, y = y, x
	}
	switch op {
	case ir.OpEq:
		for i := range out {
			out[i] = b2u(x[i] == y[i])
		}
	case ir.OpNe:
		for i := range out {
			out[i] = b2u(x[i] != y[i])
		}
	case ir.OpULt, ir.OpUGt, ir.OpSLt, ir.OpSGt:
		for i := range out {
			out[i] = b2u(x[i]^flip < y[i]^flip)
		}
	case ir.OpULe, ir.OpUGe, ir.OpSLe, ir.OpSGe:
		for i := range out {
			out[i] = b2u(x[i]^flip <= y[i]^flip)
		}
	default:
		panic("solver: cmpColumn: not a comparison: " + op.String())
	}
}

// cmpColumnK is cmpColumn with one operand the committed scalar k: the
// first when kFirst, else the second. With the column on the left the
// ten predicates are six loops over keys (cmpkernel.go).
func cmpColumnK(op ir.Op, bits int, out, x []uint64, k uint64, kFirst bool) {
	x = x[:len(out)]
	r, signed := relOf(op)
	if kFirst {
		r = r.swap()
	}
	var flip uint64
	if signed {
		flip = signBit(int32(bits))
	}
	k ^= flip
	switch r {
	case relEq:
		for i := range out {
			out[i] = b2u(x[i] == k)
		}
	case relNe:
		for i := range out {
			out[i] = b2u(x[i] != k)
		}
	case relLt:
		for i := range out {
			out[i] = b2u(x[i]^flip < k)
		}
	case relLe:
		for i := range out {
			out[i] = b2u(x[i]^flip <= k)
		}
	case relGt:
		for i := range out {
			out[i] = b2u(x[i]^flip > k)
		}
	case relGe:
		for i := range out {
			out[i] = b2u(x[i]^flip >= k)
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
