package passes

import "overify/internal/ir"

// Annotate computes conservative unsigned value ranges for instruction
// results and attaches them as metadata. Today's compilers compute this
// information and throw it away; the paper ("Program annotations", §3)
// argues it should be preserved for verification tools. No verifier
// here reads them (they decided none of the corpus's comparisons), so
// no level runs annotate; -passes and Table 2's ablation row can.
// Annotation attaches metadata only: the CFG analyses survive.
func Annotate() Pass {
	return funcPass{name: "annotate", preserves: AllAnalyses, run: annotateFunc}
}

const maxU64 = ^uint64(0)

func fullRange(bits int) ir.Range { return ir.Range{Lo: 0, Hi: ir.Mask(bits, maxU64)} }

func annotateFunc(f *ir.Function, cx *Context) bool {
	defer dumpOnPanic("annotate", f)
	// ranges holds each instruction's range found so far by SSA id.
	s := cx.scratch()
	s.ranges = byID(s.ranges, f)
	ranges := s.ranges
	rangeOf := func(v ir.Value) (ir.Range, bool) {
		switch x := v.(type) {
		case *ir.Const:
			return ir.Range{Lo: x.Val, Hi: x.Val}, true
		case *ir.Instr:
			return ranges[x.ID].r, ranges[x.ID].known
		}
		return ir.Range{}, false
	}

	changed := false
	// A few propagation rounds in RPO pick up phi cycles conservatively.
	rpo := ir.ReversePostorder(f)
	for round := 0; round < 4; round++ {
		for _, b := range rpo {
			for _, in := range b.Instrs {
				it, isInt := in.Typ.(ir.IntType)
				if !isInt {
					continue
				}
				r, ok := deriveRange(in, it, rangeOf)
				if !ok {
					continue
				}
				if old := ranges[in.ID]; !old.known || old.r != r {
					ranges[in.ID] = knownRange{r, true}
					changed = true
				}
			}
		}
	}

	n := 0
	for _, b := range rpo {
		for _, in := range b.Instrs {
			kr := ranges[in.ID]
			if !kr.known || kr.r == fullRange(in.Typ.(ir.IntType).Bits) {
				continue // nothing learned
			}
			if in.Meta == nil {
				in.Meta = &ir.Meta{}
			}
			rr := kr.r
			in.Meta.Range = &rr
			n++
		}
	}
	cx.Stats.RangesAttached += n
	return changed && n > 0
}

// knownRange is one entry of annotate's range table: an instruction's
// range, if the propagation has derived one.
type knownRange struct {
	r     ir.Range
	known bool
}

// deriveRange computes a conservative unsigned range for in from its
// operands' ranges.
func deriveRange(in *ir.Instr, t ir.IntType, rangeOf func(ir.Value) (ir.Range, bool)) (ir.Range, bool) {
	full := fullRange(t.Bits)
	switch in.Op {
	case ir.OpZExt:
		from := in.Args[0].Type().(ir.IntType)
		if r, ok := rangeOf(in.Args[0]); ok {
			return r, true
		}
		return ir.Range{Lo: 0, Hi: ir.Mask(from.Bits, maxU64)}, true

	case ir.OpTrunc:
		if r, ok := rangeOf(in.Args[0]); ok && r.Hi <= ir.Mask(t.Bits, maxU64) {
			return r, true
		}
		return full, true

	case ir.OpAnd:
		// x & mask <= mask.
		hi := full.Hi
		if r, ok := rangeOf(in.Args[0]); ok && r.Hi < hi {
			hi = r.Hi
		}
		if r, ok := rangeOf(in.Args[1]); ok && r.Hi < hi {
			hi = r.Hi
		}
		return ir.Range{Lo: 0, Hi: hi}, true

	case ir.OpURem:
		if c, ok := in.Args[1].(*ir.Const); ok && !c.IsZero() {
			return ir.Range{Lo: 0, Hi: c.Val - 1}, true
		}

	case ir.OpUDiv:
		if r, ok := rangeOf(in.Args[0]); ok {
			return ir.Range{Lo: 0, Hi: r.Hi}, true
		}

	case ir.OpLShr:
		if c, ok := in.Args[1].(*ir.Const); ok && c.Val < uint64(t.Bits) {
			return ir.Range{Lo: 0, Hi: ir.Mask(t.Bits, maxU64) >> c.Val}, true
		}

	case ir.OpSelect:
		r1, ok1 := rangeOf(in.Args[1])
		r2, ok2 := rangeOf(in.Args[2])
		if ok1 && ok2 {
			return unionRange(r1, r2), true
		}

	case ir.OpPhi:
		var acc ir.Range
		first := true
		for _, a := range in.Args {
			r, ok := rangeOf(a)
			if !ok {
				return full, true
			}
			if first {
				acc, first = r, false
			} else {
				acc = unionRange(acc, r)
			}
		}
		if !first {
			return acc, true
		}

	case ir.OpAdd:
		r1, ok1 := rangeOf(in.Args[0])
		r2, ok2 := rangeOf(in.Args[1])
		if ok1 && ok2 {
			// Only safe if no wraparound is possible.
			if r1.Hi <= full.Hi-r2.Hi {
				return ir.Range{Lo: r1.Lo + r2.Lo, Hi: r1.Hi + r2.Hi}, true
			}
		}

	case ir.OpLoad:
		// A load of i8 is bounded by its width.
		if t.Bits < 64 {
			return full, true
		}
	}
	if in.Op.IsCmp() {
		return ir.Range{Lo: 0, Hi: 1}, true
	}
	return full, true
}

func unionRange(a, b ir.Range) ir.Range {
	lo := a.Lo
	if b.Lo < lo {
		lo = b.Lo
	}
	hi := a.Hi
	if b.Hi > hi {
		hi = b.Hi
	}
	return ir.Range{Lo: lo, Hi: hi}
}
