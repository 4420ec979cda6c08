package ir

import (
	"fmt"
	"strings"
)

// VerifyError aggregates structural problems found in a module.
type VerifyError struct {
	Problems []string
}

// Error joins all problems into one message.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("ir verify: %d problem(s):\n  %s",
		len(e.Problems), strings.Join(e.Problems, "\n  "))
}

// VerifyModule checks structural invariants of every function in m:
// single terminator per block, operand type agreement, phi/CFG edge
// consistency, and SSA dominance of uses by definitions. It returns nil
// when the module is well-formed.
func VerifyModule(m *Module) error {
	var problems []string
	for _, f := range m.Funcs {
		problems = append(problems, verifyFunc(f)...)
	}
	if len(problems) > 0 {
		return &VerifyError{Problems: problems}
	}
	return nil
}

func verifyFunc(f *Function) []string {
	var p []string
	bad := func(format string, args ...interface{}) {
		p = append(p, fmt.Sprintf("@%s: ", f.Name)+fmt.Sprintf(format, args...))
	}
	if f.IsDeclaration() {
		return nil
	}
	s := cfgPool.Get()
	defer s.put()
	inFunc := s.visited(f.NumBlocks()) // by block number, for blocks of f
	for _, b := range f.Blocks {
		inFunc[b.num] = true
	}
	preds := s.predsOf(f)
	dt := ComputeDom(f)

	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			bad("block %s is empty", b.Name)
			continue
		}
		for i, in := range b.Instrs {
			isLast := i == len(b.Instrs)-1
			if in.IsTerminator() != isLast {
				bad("block %s: terminator placement at instr %d (%s)", b.Name, i, in.Op)
			}
			if in.Op == OpPhi && i >= b.FirstNonPhi() {
				bad("block %s: phi %s after non-phi", b.Name, in.Ref())
			}
			if in.Blk != b {
				bad("block %s: instr %s has wrong owner", b.Name, in.Ref())
			}
			for _, c := range in.Succs {
				if c.Fn != f || !inFunc[c.num] {
					bad("block %s: successor %s not in function", b.Name, c.Name)
				}
			}
			p = append(p, verifyInstrTypes(f, b, in)...)
		}
		// Phi edges must match predecessors exactly (for reachable blocks).
		if dt.Reachable(b) {
			for _, phi := range b.Phis() {
				if len(phi.Incoming) != len(preds.Of(b)) {
					bad("block %s: phi %s has %d incoming, %d preds",
						b.Name, phi.Ref(), len(phi.Incoming), len(preds.Of(b)))
					continue
				}
				for _, pr := range preds.Of(b) {
					if phi.PhiIncoming(pr) == nil {
						bad("block %s: phi %s missing edge from %s", b.Name, phi.Ref(), pr.Name)
					}
				}
			}
		}
	}

	// SSA dominance: every use of an instruction result must be dominated
	// by its definition. Only meaningful for reachable code.
	for _, b := range f.Blocks {
		if !dt.Reachable(b) {
			continue
		}
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				def, ok := a.(*Instr)
				if !ok {
					continue
				}
				if def.Blk == nil {
					bad("block %s: %s uses detached instr %s", b.Name, in.Ref(), def.Ref())
					continue
				}
				if !dt.Reachable(def.Blk) {
					continue
				}
				if !dt.InstrDominates(def, in, i) {
					bad("block %s: use of %s in %s not dominated by def (in %s)",
						b.Name, def.Ref(), in.Ref(), def.Blk.Name)
				}
			}
		}
	}
	return p
}

func verifyInstrTypes(f *Function, b *Block, in *Instr) []string {
	var p []string
	bad := func(format string, args ...interface{}) {
		p = append(p, fmt.Sprintf("@%s/%s: %s: ", f.Name, b.Name, in.Ref())+fmt.Sprintf(format, args...))
	}
	intArg := func(i int) (IntType, bool) {
		if i >= len(in.Args) || in.Args[i] == nil {
			bad("missing operand %d", i)
			return IntType{}, false
		}
		it, ok := in.Args[i].Type().(IntType)
		if !ok {
			bad("operand %d: want integer, got %s", i, in.Args[i].Type())
		}
		return it, ok
	}
	switch {
	case in.Op.IsBinary():
		a, ok1 := intArg(0)
		c, ok2 := intArg(1)
		if ok1 && ok2 {
			if a.Bits != c.Bits {
				bad("width mismatch %s vs %s", a, c)
			}
			if rt, ok := in.Typ.(IntType); !ok || rt.Bits != a.Bits {
				bad("result type %s, want %s", in.Typ, a)
			}
		}
	case in.Op.IsCmp():
		if len(in.Args) == 2 && in.Args[0] != nil && in.Args[1] != nil {
			if _, isPtr := in.Args[0].Type().(PtrType); isPtr {
				if !SameType(in.Args[0].Type(), in.Args[1].Type()) {
					bad("pointer cmp type mismatch %s vs %s", in.Args[0].Type(), in.Args[1].Type())
				}
				switch in.Op {
				case OpEq, OpNe, OpULt, OpULe, OpUGt, OpUGe:
				default:
					bad("%s not valid on pointers", in.Op)
				}
				if !SameType(in.Typ, I1) {
					bad("cmp result must be i1")
				}
				break
			}
		}
		a, ok1 := intArg(0)
		c, ok2 := intArg(1)
		if ok1 && ok2 && a.Bits != c.Bits {
			bad("width mismatch %s vs %s", a, c)
		}
		if !SameType(in.Typ, I1) {
			bad("cmp result must be i1")
		}
	case in.Op == OpPtrDiff:
		if len(in.Args) != 2 || !SameType(in.Args[0].Type(), in.Args[1].Type()) {
			bad("ptrdiff operand mismatch")
		} else if _, ok := in.Args[0].Type().(PtrType); !ok {
			bad("ptrdiff needs pointer operands")
		}
		if !SameType(in.Typ, I64) {
			bad("ptrdiff result must be i64")
		}
	case in.Op == OpSelect:
		if len(in.Args) != 3 {
			bad("select needs 3 operands")
			break
		}
		if !SameType(in.Args[0].Type(), I1) {
			bad("select cond must be i1")
		}
		if !SameType(in.Args[1].Type(), in.Args[2].Type()) || !SameType(in.Typ, in.Args[1].Type()) {
			bad("select arm/result type mismatch")
		}
	case in.Op == OpZExt || in.Op == OpSExt:
		a, ok := intArg(0)
		rt, ok2 := in.Typ.(IntType)
		if ok && ok2 && a.Bits >= rt.Bits {
			bad("%s from %s to %s does not widen", in.Op, a, rt)
		}
	case in.Op == OpTrunc:
		a, ok := intArg(0)
		rt, ok2 := in.Typ.(IntType)
		if ok && ok2 && a.Bits <= rt.Bits {
			bad("trunc from %s to %s does not narrow", a, rt)
		}
	case in.Op == OpLoad:
		pt, ok := in.Args[0].Type().(PtrType)
		if !ok {
			bad("load from non-pointer %s", in.Args[0].Type())
		} else if !SameType(in.Typ, pt.Elem) {
			bad("load type %s from %s", in.Typ, pt)
		}
	case in.Op == OpStore:
		pt, ok := in.Args[1].Type().(PtrType)
		if !ok {
			bad("store to non-pointer %s", in.Args[1].Type())
		} else if !SameType(in.Args[0].Type(), pt.Elem) {
			bad("store %s into %s", in.Args[0].Type(), pt)
		}
	case in.Op == OpGEP:
		if _, ok := in.Args[0].Type().(PtrType); !ok {
			bad("gep base must be pointer")
		}
		if it, ok := in.Args[1].Type().(IntType); !ok || it.Bits != 64 {
			bad("gep index must be i64")
		}
	case in.Op == OpCall:
		if in.Callee == nil {
			bad("call without callee")
			break
		}
		if len(in.Args) != len(in.Callee.Sig.Params) {
			bad("call @%s: %d args, want %d", in.Callee.Name, len(in.Args), len(in.Callee.Sig.Params))
			break
		}
		for i, a := range in.Args {
			if !SameType(a.Type(), in.Callee.Sig.Params[i]) {
				bad("call @%s arg %d: %s, want %s", in.Callee.Name, i, a.Type(), in.Callee.Sig.Params[i])
			}
		}
		if !SameType(in.Typ, in.Callee.Sig.Ret) {
			bad("call @%s result: %s, want %s", in.Callee.Name, in.Typ, in.Callee.Sig.Ret)
		}
	case in.Op == OpPhi:
		if len(in.Args) != len(in.Incoming) {
			bad("phi args/incoming length mismatch")
		}
		for _, a := range in.Args {
			if a != nil && !SameType(a.Type(), in.Typ) {
				bad("phi operand type %s, want %s", a.Type(), in.Typ)
			}
		}
	case in.Op == OpCheck:
		if len(in.Args) != 1 || !SameType(in.Args[0].Type(), I1) {
			bad("check cond must be i1")
		}
	case in.Op == OpCondBr:
		if len(in.Args) != 1 || !SameType(in.Args[0].Type(), I1) {
			bad("condbr cond must be i1")
		}
		if len(in.Succs) != 2 {
			bad("condbr needs 2 successors")
		}
	case in.Op == OpBr:
		if len(in.Succs) != 1 {
			bad("br needs 1 successor")
		}
	case in.Op == OpRet:
		want := f.Sig.Ret
		if SameType(want, Void) {
			if len(in.Args) != 0 {
				bad("ret value in void function")
			}
		} else if len(in.Args) != 1 || !SameType(in.Args[0].Type(), want) {
			bad("ret type mismatch, want %s", want)
		}
	}
	return p
}
