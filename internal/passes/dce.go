package passes

import "overify/internal/ir"

// DCE removes instructions whose results are never used and blocks that
// can never execute. Fewer instructions mean less work per path for a
// symbolic executor, and -O0 output is full of dead loads.
//
// The steady-state work is instruction-only, which preserves the CFG
// analyses; the one CFG mutation (dropping unreachable blocks) is rare
// after the first cleanup and invalidates precisely when it fires.
func DCE() Pass {
	return funcPass{name: "dce", preserves: AllAnalyses, run: dceFunc}
}

func dceFunc(f *ir.Function, cx *Context) bool {
	defer dumpOnPanic("dce", f)
	changed := false
	if n := ir.RemoveUnreachable(f); n > 0 {
		cx.Stats.DeadBlocks += n
		cx.Invalidate(f, NoAnalyses)
		changed = true
	}
	// Iterate: removing one dead instruction can make its operands dead.
	// used is indexed by SSA id; only instructions can be dead, so only
	// instruction operands are marked.
	used := make([]bool, f.MaxID()+1)
	for {
		clear(used)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					if a, ok := a.(*ir.Instr); ok && a.ID < len(used) {
						used[a.ID] = true
					}
				}
			}
		}
		n := 0
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				if !used[in.ID] && !ir.SameType(in.Typ, ir.Void) && removableIfDead(in) {
					in.Blk = nil
					n++
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
		}
		if n == 0 {
			break
		}
		cx.Stats.DeadInstrs += n
		changed = true
	}
	return changed
}
