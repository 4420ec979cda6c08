package passes

import "overify/internal/ir"

// Inline replaces direct calls with the callee's body. The paper's
// -OSYMBEX "aggressively inlines functions in order to benefit from
// simplifications due to function specialization" (§4): once the body is
// inlined, constant arguments fold, and the callee's branches become
// visible to unswitching and if-conversion. The CPU-oriented pipelines
// use a small InlineThreshold; -OVERIFY a very large one.
func Inline() Pass { return inlinePass{} }

type inlinePass struct{}

func (inlinePass) Name() string { return "inline" }

// Inlining splices blocks into the caller: preserves nothing. It is
// the one module pass (it reads callee bodies while rewriting the
// caller), so the manager runs it serially.
func (inlinePass) Preserves() AnalysisSet { return NoAnalyses }

func (inlinePass) Run(m *ir.Module, cx *Context) bool {
	changed := false
	recursive := recursiveFuncs(m)
	rounds := cx.Cost.InlineRounds
	if rounds <= 0 {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		any := false
		for _, f := range m.Funcs {
			if f.IsDeclaration() {
				continue
			}
			if inlineIntoFunc(f, cx, recursive) {
				cx.Invalidate(f, NoAnalyses)
				any = true
			}
		}
		if !any {
			break
		}
		changed = true
	}
	return changed
}

// recursiveFuncs returns the defined functions that can reach themselves
// through direct calls, by direct or by mutual recursion. Such a callee
// is never inlined: inlining it copies a call round its cycle into the
// caller, which the next search finds again, until the growth cap stops
// it. Inlining only ever copies a callee's calls into its caller, so it
// creates no cycle, and the set holds for the whole run.
func recursiveFuncs(m *ir.Module) map[*ir.Function]bool {
	callees := make(map[*ir.Function][]*ir.Function)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && !in.Callee.IsDeclaration() {
					callees[f] = append(callees[f], in.Callee)
				}
			}
		}
	}
	recursive := make(map[*ir.Function]bool)
	for _, f := range m.Funcs {
		seen := make(map[*ir.Function]bool)
		work := append([]*ir.Function(nil), callees[f]...)
		for len(work) > 0 && !recursive[f] {
			g := work[len(work)-1]
			work = work[:len(work)-1]
			if g == f {
				recursive[f] = true
			} else if !seen[g] {
				seen[g] = true
				work = append(work, callees[g]...)
			}
		}
	}
	return recursive
}

func inlineIntoFunc(caller *ir.Function, cx *Context, recursive map[*ir.Function]bool) bool {
	defer dumpOnPanic("inline", caller)
	changed := false
	for {
		call := findInlinableCall(caller, cx, recursive)
		if call == nil {
			return changed
		}
		inlineCall(cx, caller, call)
		cx.Stats.FunctionsInlined++
		changed = true
	}
}

func findInlinableCall(caller *ir.Function, cx *Context, recursive map[*ir.Function]bool) *ir.Instr {
	callerSize := caller.NumInstrs()
	for _, b := range caller.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall {
				continue
			}
			callee := in.Callee
			if callee.IsDeclaration() || recursive[callee] {
				continue
			}
			size := callee.NumInstrs()
			if size > cx.Cost.InlineThreshold {
				continue
			}
			if callerSize+size > cx.Cost.InlineGrowthCap {
				continue
			}
			return in
		}
	}
	return nil
}

// inlineCall splices callee's body in place of the call instruction.
func inlineCall(cx *Context, caller *ir.Function, call *ir.Instr) {
	callee := call.Callee
	callBlock := call.Blk

	// Split callBlock at the call: everything after it moves to "cont".
	cont := caller.NewBlock(callBlock.Name + ".cont")
	idx := -1
	for i, in := range callBlock.Instrs {
		if in == call {
			idx = i
			break
		}
	}
	tail := callBlock.Instrs[idx+1:]
	callBlock.Instrs = callBlock.Instrs[:idx] // drop the call itself
	call.Blk = nil
	for _, in := range tail {
		in.Blk = cont
		cont.Instrs = append(cont.Instrs, in)
	}
	// Successor phis that referenced callBlock now flow from cont.
	for _, s := range cont.Succs() {
		for _, phi := range s.Phis() {
			for i, ib := range phi.Incoming {
				if ib == callBlock {
					phi.Incoming[i] = cont
				}
			}
		}
	}

	// Clone the callee body with parameters bound to the arguments.
	cm := &cx.scratch().clones
	ir.CloneFunctionBody(caller, callee, call.Args, cm)
	entryClone := cm.Block(callee.Entry())

	// Jump into the inlined body.
	bd := ir.NewBuilder(caller, callBlock)
	bd.Br(entryClone)

	// Rewire cloned returns to cont, collecting return values.
	type retEdge struct {
		b *ir.Block
		v ir.Value
	}
	var rets []retEdge
	for _, ob := range callee.Blocks {
		nb := cm.Block(ob)
		t := nb.Term()
		if t == nil || t.Op != ir.OpRet {
			continue
		}
		var rv ir.Value
		if len(t.Args) == 1 {
			rv = t.Args[0]
		}
		t.Op = ir.OpBr
		t.Args = nil
		t.Succs = []*ir.Block{cont}
		rets = append(rets, retEdge{b: nb, v: rv})
	}

	// Replace uses of the call result.
	if !ir.SameType(call.Typ, ir.Void) && len(rets) > 0 {
		var repl ir.Value
		if len(rets) == 1 {
			repl = rets[0].v
		} else {
			phi := &ir.Instr{Op: ir.OpPhi, Typ: call.Typ}
			caller.ClaimID(phi)
			phi.Blk = cont
			cont.Instrs = append([]*ir.Instr{phi}, cont.Instrs...)
			for _, re := range rets {
				phi.SetPhiIncoming(re.b, re.v)
			}
			repl = phi
		}
		ir.ReplaceUses(caller, call, repl)
	}

	if len(rets) == 0 {
		// Callee never returns (infinite loop or always-trapping); cont
		// is unreachable.
		cont.Instrs = nil
		bd2 := ir.NewBuilder(caller, cont)
		bd2.Unreachable()
	}

	// Cloned allocas stay where the body was spliced (not hoisted to the
	// caller entry): if the call site sits in a loop, re-executing the
	// alloca each iteration gives the same fresh-zeroed storage the
	// callee would have received per call at -O0.
}
