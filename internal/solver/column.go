package solver

import (
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
// column.)

// columnScratch is filterColumn's storage, reused across a solver's
// searches with the rest of its tapeScratch.
type columnScratch struct {
	off  []int32 // per slot: 1 + where its column starts in buf, 0 for a slot not listed
	list []int32 // the last filter's slots: watch[vi] ∩ csub[ci] live in vi alone, topo-ordered
	// buf is cut into columns of one word per value tried: the values
	// themselves, three for committed operands broadcast, then one per
	// listed slot.
	buf []uint64
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
	if need := (4 + len(list)) * n; cap(c.buf) < need {
		c.buf = make([]uint64, max(need, 2*cap(c.buf)))
	}
	vals := d.appendValues(c.buf[:0])
	next := 4 * n
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
			binColumn(op.op, int(op.bits), m, out, ts.operand(op.a0, n, 0), ts.operand(op.a1, n, 1))
		case expr.KCmp:
			cmpColumn(op.op, int(t.ops[op.a0].bits), out, ts.operand(op.a0, n, 0), ts.operand(op.a1, n, 1))
		case expr.KSelect:
			cond, x, y := ts.operand(op.a0, n, 0), ts.operand(op.a1, n, 1), ts.operand(op.a2, n, 2)
			for i := range out {
				if cond[i] != 0 {
					out[i] = x[i] & m
				} else {
					out[i] = y[i] & m
				}
			}
		case expr.KCast:
			from := int(t.ops[op.a0].bits)
			for i, v := range ts.operand(op.a0, n, 0) {
				out[i] = ir.EvalCast(op.op, from, int(op.bits), v) & m
			}
		case expr.KRead:
			for i, idx := range ts.operand(op.a0, n, 0) {
				out[i] = 0
				if idx < uint64(len(op.table)) {
					out[i] = op.table[idx] & m
				}
			}
		}
	}
	// ci mentions vi, so its root heads a column: the last one listed.
	for i, r := range ts.operand(t.roots[ci], n, 0) {
		if r == 0 {
			d.clear(vals[i])
		}
	}
	return n
}

// operand returns slot a's n values under the filter: its column when
// the open byte reaches it, otherwise its committed result — known, by
// the invariant above — broadcast into scratch column k.
func (ts *tapeState) operand(a int32, n, k int) []uint64 {
	c := ts.col
	if o := int(c.off[a]); o > 0 {
		return c.buf[o-1 : o-1+n]
	}
	v := ts.val[a]
	out := c.buf[(1+k)*n : (2+k)*n]
	for i := range out {
		out[i] = v
	}
	return out
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

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
