package solver

import (
	"math/bits"

	"overify/internal/ir"
)

// Comparison kernels. Both solver kernels ask comparisons questions of
// whole value lists: value-set propagation asks which results a
// comparison can take over its operands' sets, and which values of one
// operand some value of the other supports (propagate.go); the unary
// filter asks which values of the open byte make a comparison against a
// committed value hold (column.go). Each answer follows from a summary
// of the other side, without enumerating the product: a value x relates
// to some listed y by < exactly when x is below the largest, by = when
// it is listed, by ≠ unless it is the only one listed. The summary is
// the list's unsigned and signed extremes and its membership below 256
// (cmpSummary); an order comparison is one relation between keys, the
// value itself or, for a signed one, the value with the sign bit of the
// comparison's width flipped (two's-complement order is unsigned order
// with the sign bit flipped). Over a byte, the values a relation admits
// are one key interval, so a few bitmap words (keyMask).

// cmpRel is a comparison's relation between keys.
type cmpRel uint8

const (
	relEq cmpRel = iota
	relNe
	relLt
	relLe
	relGt
	relGe
)

// relOf is the relation a comparison op tests and whether its keys are
// signed.
func relOf(op ir.Op) (r cmpRel, signed bool) {
	switch op {
	case ir.OpEq:
		return relEq, false
	case ir.OpNe:
		return relNe, false
	case ir.OpULt:
		return relLt, false
	case ir.OpULe:
		return relLe, false
	case ir.OpUGt:
		return relGt, false
	case ir.OpUGe:
		return relGe, false
	case ir.OpSLt:
		return relLt, true
	case ir.OpSLe:
		return relLe, true
	case ir.OpSGt:
		return relGt, true
	case ir.OpSGe:
		return relGe, true
	}
	panic("solver: relOf: not a comparison: " + op.String())
}

// swap is the relation with its sides exchanged: a r b ⇔ b r.swap() a.
func (r cmpRel) swap() cmpRel {
	switch r {
	case relLt:
		return relGt
	case relLe:
		return relGe
	case relGt:
		return relLt
	case relGe:
		return relLe
	}
	return r
}

// not is the relation's negation: !(a r b) ⇔ a r.not() b.
func (r cmpRel) not() cmpRel {
	switch r {
	case relEq:
		return relNe
	case relNe:
		return relEq
	case relLt:
		return relGe
	case relLe:
		return relGt
	case relGt:
		return relLe
	}
	return relLt
}

// signBit is the bit a signed comparison of the given width flips.
func signBit(bits int32) uint64 { return 1 << uint(bits-1) }

// cmpSummary is what a comparison needs of one side's value list, the
// values deduplicated and masked to the side's width: how many, the
// least and greatest unsigned and signed keys, and which values below
// 256 are listed. A slot's summary is of the list propagation reads for
// it (propagator.summary).
type cmpSummary struct {
	n          int
	umin, umax uint64
	smin, smax uint64 // keys: value ^ the sign bit at the side's width
	low        domain // the listed values below 256
	high       bool   // some listed value is 256 or more
	// epoch and at are when a slot's forward-set summary was taken: the
	// run and the forward stamp it describes (propagator.summary).
	epoch, at uint32
}

// fill summarises vals, whose signed keys flip the bit sign.
func (c *cmpSummary) fill(vals []uint64, sign uint64) {
	c.n, c.low, c.high = len(vals), domain{}, false
	c.umin, c.umax, c.smin, c.smax = ^uint64(0), 0, ^uint64(0), 0
	for _, v := range vals {
		c.umin, c.umax = min(c.umin, v), max(c.umax, v)
		k := v ^ sign
		c.smin, c.smax = min(c.smin, k), max(c.smax, k)
		if v < uint64(maxValues) {
			c.low[v/64] |= 1 << (v % 64)
		} else {
			c.high = true
		}
	}
}

// fillDomain is fill over the values of d, ascending, for a variable of
// the given width, from the bitmap alone: every value is below 2^bits,
// so the values below the sign bit hold the greater signed keys, and
// each extreme is one bit scan.
func (c *cmpSummary) fillDomain(d *domain, bits int32) {
	c.n, c.low, c.high = d.count(), *d, false
	c.umin, c.umax, c.smin, c.smax = ^uint64(0), 0, ^uint64(0), 0
	if c.n == 0 {
		return
	}
	sign := signBit(bits)
	below := keyMask(0, sign-1, 0, maxValueBits)
	var lo, hi domain
	for w := range d {
		lo[w], hi[w] = d[w]&below[w], d[w]&^below[w]
	}
	c.umin, c.umax = d.first(), d.last()
	if hi != (domain{}) {
		c.smin = hi.first() ^ sign
	} else {
		c.smin = lo.first() ^ sign
	}
	if lo != (domain{}) {
		c.smax = lo.last() ^ sign
	} else {
		c.smax = hi.last() ^ sign
	}
}

// keys returns the least and greatest key listed.
func (c *cmpSummary) keys(signed bool) (lo, hi uint64) {
	if signed {
		return c.smin, c.smax
	}
	return c.umin, c.umax
}

// has reports whether v is listed; vals is the list c summarises.
func (c *cmpSummary) has(v uint64, vals []uint64) bool {
	if v < uint64(maxValues) {
		return c.low.has(v)
	}
	if !c.high {
		return false
	}
	for _, x := range vals {
		if x == v {
			return true
		}
	}
	return false
}

// exists reports whether some listed value y makes x r y hold, for x of
// key kx; vals is the list c summarises.
func (c *cmpSummary) exists(r cmpRel, signed bool, x, kx uint64, vals []uint64) bool {
	if c.n == 0 {
		return false
	}
	switch r {
	case relEq:
		return c.has(x, vals)
	case relNe:
		return c.n > 1 || c.umin != x
	}
	lo, hi := c.keys(signed)
	switch r {
	case relLt:
		return kx < hi
	case relLe:
		return kx <= hi
	case relGt:
		return kx > lo
	}
	return kx >= lo
}

// pairExists reports whether some x listed in a and y listed in b make
// x r y hold; av and bv are the lists a and b summarise.
func pairExists(r cmpRel, signed bool, a *cmpSummary, av []uint64, b *cmpSummary, bv []uint64) bool {
	if a.n == 0 || b.n == 0 {
		return false
	}
	switch r {
	case relEq:
		for w := range a.low {
			if a.low[w]&b.low[w] != 0 {
				return true
			}
		}
		if a.high && b.high {
			for _, x := range av {
				if x >= uint64(maxValues) && b.has(x, bv) {
					return true
				}
			}
		}
		return false
	case relNe:
		return a.n > 1 || b.n > 1 || a.umin != b.umin
	}
	alo, ahi := a.keys(signed)
	blo, bhi := b.keys(signed)
	switch r {
	case relLt:
		return alo < bhi
	case relLe:
		return alo <= bhi
	case relGt:
		return ahi > blo
	}
	return ahi >= blo
}

// mask returns the values x below 2^xb for which some listed value y
// makes x r y hold, where x's key is x ^ flip: flip is 0 for an unsigned
// or equality relation, else the sign bit of the comparison's width,
// which is at least xb bits wide.
func (c *cmpSummary) mask(r cmpRel, signed bool, flip uint64, xb int32) domain {
	if c.n == 0 {
		return domain{}
	}
	switch r {
	case relEq:
		return c.low
	case relNe:
		all := fullDomain(maxValueBits)
		if c.n == 1 && c.umin < uint64(maxValues) {
			all.clear(c.umin)
		}
		return all
	}
	lo, hi := c.keys(signed)
	switch r {
	case relLt:
		if hi == 0 {
			return domain{}
		}
		return keyMask(0, hi-1, flip, xb)
	case relLe:
		return keyMask(0, hi, flip, xb)
	case relGt:
		if lo == ^uint64(0) {
			return domain{}
		}
		return keyMask(lo+1, ^uint64(0), flip, xb)
	}
	return keyMask(lo, ^uint64(0), flip, xb)
}

// first is d's least value; d must hold one.
func (d *domain) first() uint64 {
	for w, word := range d {
		if word != 0 {
			return uint64(w*64 + bits.TrailingZeros64(word))
		}
	}
	panic("solver: first of an empty domain")
}

// last is d's greatest value; d must hold one.
func (d *domain) last() uint64 {
	for w := len(d) - 1; w >= 0; w-- {
		if d[w] != 0 {
			return uint64(w*64 + 63 - bits.LeadingZeros64(d[w]))
		}
	}
	panic("solver: last of an empty domain")
}

// maxValueBits is the widest variable a domain holds.
const maxValueBits = 8

// keyMask returns the values x below 2^xb whose key x ^ flip lies in
// [lo, hi]. flip is 0, the sign bit of xb bits, or a bit above them, so
// the keys ascend over x in at most two blocks: x ^ flip is x + flip
// below the sign bit and x - flip from it.
func keyMask(lo, hi, flip uint64, xb int32) (m domain) {
	top := uint64(1)<<uint(xb) - 1
	if flip == 0 || flip > top {
		m.setKeys(0, top, lo, hi, flip)
		return m
	}
	m.setKeys(0, flip-1, lo, hi, flip)
	m.setKeys(flip, top, lo, hi, flip)
	return m
}

// setKeys adds the values x in [xs, xe], over which x ^ flip ascends,
// whose key lies in [lo, hi].
func (d *domain) setKeys(xs, xe, lo, hi, flip uint64) {
	a, b := max(lo, xs^flip), min(hi, xe^flip)
	if a > b {
		return
	}
	for x, last := a^flip, b^flip; ; {
		// The run of [x, last] inside x's word.
		end := min(last, x|63)
		d[x/64] |= (^uint64(0) >> (63 - (end - x))) << (x % 64)
		if end == last {
			return
		}
		x = end + 1
	}
}

// rangeSums[b] summarises byteRange[:1<<b], the enumeration iterable
// falls back to for a b-bit slot whose forward set is top.
var rangeSums = func() (r [maxValueBits + 1]cmpSummary) {
	for b := int32(1); b <= maxValueBits; b++ {
		r[b].fill(byteRange[:1<<uint(b)], signBit(b))
	}
	return r
}()
