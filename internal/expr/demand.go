package expr

import "overify/internal/ir"

// demandDepth bounds how far below an `and` demand rewrites.
const demandDepth = 12

// demand returns a term that agrees with x on the bits of mask:
// demand(b, x, mask, d) & mask == x & mask under every model. It is
// LLVM's SimplifyDemandedBits, applied where terms are built: Bin calls
// it for `and x, C` with a constant C, so that a constraint names only
// the variables whose bits it reads. base32's `(acc >> k) & 31` over a
// loop-carried `acc = (acc << 8) | input[i]` reads at most two input
// bytes, but without this its term names every byte shifted into acc,
// and the solver's constraint independence joins them all in one group.
//
// The rules: a term with no demanded bit is the constant 0; `or` passes
// the mask to both operands; `shl`, `lshr` and `ashr` by a constant
// below the width shift it (`ashr` also demands the sign bit when a
// demanded bit is shifted in); `zext` passes the source's bits of it.
// Anything else is returned as is. A node is rebuilt only when an
// operand came back as another pointer, so a term the rules cannot
// change returns itself and builds no node.
//
// One call does not always finish the rewrite: a rebuilt node can fold
// into a shape the rules see further into, and Bin's re-entry with the
// rebuilt `and` takes it from there.
func demand(b *Builder, x *Expr, mask uint64, depth int) *Expr {
	if mask == 0 {
		return b.Const(x.Bits, 0)
	}
	if depth == 0 {
		return x
	}
	switch {
	case x.Kind == KCast && x.Op == ir.OpZExt:
		src := x.Args[0]
		s := demand(b, src, mask&ir.Mask(src.Bits, ^uint64(0)), depth-1)
		if s == src {
			return x
		}
		return b.Cast(ir.OpZExt, s, x.Bits)
	case x.Kind == KBin && x.Op == ir.OpOr:
		l, r := x.Args[0], x.Args[1]
		dl, dr := demand(b, l, mask, depth-1), demand(b, r, mask, depth-1)
		if dl == l && dr == r {
			return x
		}
		return b.Bin(ir.OpOr, dl, dr)
	case x.Kind == KBin && (x.Op == ir.OpShl || x.Op == ir.OpLShr || x.Op == ir.OpAShr):
		src, amt := x.Args[0], x.Args[1]
		s, ok := amt.IsConst()
		if !ok || s >= uint64(x.Bits) {
			return x
		}
		var m uint64
		if x.Op == ir.OpShl {
			m = mask >> s
		} else {
			m = ir.Mask(x.Bits, mask<<s)
			if x.Op == ir.OpAShr && mask>>(uint64(x.Bits)-s) != 0 {
				m |= 1 << (x.Bits - 1)
			}
		}
		d := demand(b, src, m, depth-1)
		if d == src {
			return x
		}
		return b.Bin(x.Op, d, amt)
	}
	return x
}
