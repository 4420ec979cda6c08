package passes

import (
	"overify/internal/ir"
)

// The slice pass deletes everything outside the check-relevance
// closure: instructions whose values cannot reach a kept check or trap,
// conditional branches no kept instruction is control-dependent on
// (flattened to unconditional branches — both arms compute nothing
// observable, so either serves), and whole functions no kept call can
// reach. It runs as a module pass: the relevance closure it consumes
// is module-wide.
//
// Soundness contract (pinned by the bug-parity conformance suite):
// sliced verification reports exactly the baseline's bugs on the kept
// checks. Deleting an irrelevant branch merges the path pair that
// diverged on it, so the sliced path condition at any root is the union
// of the baseline path conditions reaching it — a bug is satisfiable
// after slicing iff it was on some baseline path.
func SlicePass() Pass { return slicePass{} }

type slicePass struct{}

func (slicePass) Name() string           { return "slice" }
func (slicePass) Preserves() AnalysisSet { return NoAnalyses }

func (slicePass) Run(m *ir.Module, cx *Context) bool {
	rel := cx.Relevance(m)
	changed := false
	for _, f := range m.Funcs {
		if f.IsDeclaration() {
			continue
		}
		if sliceFunc(f, rel, cx) {
			changed = true
			cx.Invalidate(f, NoAnalyses)
		}
	}
	if removeUnreachableFuncs(m, cx) {
		changed = true
	}
	return changed
}

func sliceFunc(f *ir.Function, rel *Relevance, cx *Context) bool {
	defer dumpOnPanic("slice", f)
	changed := false
	for _, b := range f.Blocks {
		work := make([]*ir.Instr, len(b.Instrs))
		copy(work, b.Instrs)
		for _, in := range work {
			switch {
			case in.Op == ir.OpCondBr && !rel.Relevant(in):
				// No kept instruction is control-dependent on this branch
				// and its condition feeds nothing kept: both arms reach the
				// same relevant code, so flatten to the first.
				dropped := in.Succs[1]
				in.Op = ir.OpBr
				in.Args = nil
				in.Succs = in.Succs[:1]
				if dropped != in.Succs[0] {
					for _, phi := range dropped.Phis() {
						phi.RemovePhiIncoming(b)
					}
				}
				cx.Stats.BranchesSliced++
				changed = true

			case in.Op == ir.OpRet:
				// Returns always survive (the CFG needs its exits), but a
				// return value outside the closure is unobservable:
				// replace it with zero so the chain computing it can go.
				for i, a := range in.Args {
					ai, ok := a.(*ir.Instr)
					if !ok || rel.Relevant(ai) {
						continue
					}
					if it, ok := ai.Typ.(ir.IntType); ok {
						in.Args[i] = ir.ConstInt(it, 0)
						changed = true
					}
				}

			case !in.IsTerminator() && !rel.Relevant(in):
				b.Remove(in)
				cx.Stats.InstrsSliced++
				changed = true
			}
		}
	}
	if changed {
		cx.Stats.DeadBlocks += ir.RemoveUnreachable(f)
	}
	return changed
}

// removeUnreachableFuncs deletes every function the sliced entry can no
// longer call, declarations included. The entry defaults to umain, the
// corpus's verification entry point.
func removeUnreachableFuncs(m *ir.Module, cx *Context) bool {
	entryName := cx.SliceEntry
	if entryName == "" {
		entryName = "umain"
	}
	entry := m.Func(entryName)
	if entry == nil || entry.IsDeclaration() {
		return false
	}
	keep := make(map[*ir.Function]bool)
	var walk func(f *ir.Function)
	walk = func(f *ir.Function) {
		if keep[f] {
			return
		}
		keep[f] = true
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee != nil {
					walk(in.Callee)
				}
			}
		}
	}
	walk(entry)
	var doomed []*ir.Function
	for _, f := range m.Funcs {
		if !keep[f] {
			doomed = append(doomed, f)
		}
	}
	for _, f := range doomed {
		m.RemoveFunc(f)
		cx.Stats.FuncsSliced++
	}
	return len(doomed) > 0
}
