package symex

import (
	"fmt"

	"overify/internal/expr"
	"overify/internal/ir"
	"overify/internal/solver"
)

const maxCallDepth = 4096

// step runs one state until it terminates (path done) or forks (the
// continuations are returned). stop=true means a global limit was hit
// and the whole exploration must end.
func (w *worker) step(st *State) (stop bool, forked []*State) {
	for {
		if w.overLimit() {
			return true, nil
		}
		f := st.top()
		w.coverBlock(f)
		in := f.Block.Instrs[f.Idx]
		w.countInstr()

		switch in.Op {
		case ir.OpBr:
			w.jump(st, f, in.Succs[0])
			continue

		case ir.OpCondBr:
			c := w.ev(st, f, in.Args[0]).E
			if cc, ok := c.IsConst(); ok {
				if cc != 0 {
					w.jump(st, f, in.Succs[0])
				} else {
					w.jump(st, f, in.Succs[1])
				}
				continue
			}
			switch pT, pF, takeT, takeF := w.branch(st, c); {
			case takeT && takeF:
				other := w.fork(st)
				of := other.top()
				st.Part = pT
				w.jump(st, f, in.Succs[0])
				other.Part = pF
				w.jump(other, of, in.Succs[1])
				// DFS continues with the last element: st (true side).
				return false, []*State{other, st}
			case takeT:
				st.Part = pT
				w.jump(st, f, in.Succs[0])
			case takeF:
				st.Part = pF
				w.jump(st, f, in.Succs[1])
			default:
				// Contradictory path condition; the path dies silently.
				return false, nil
			}
			continue

		case ir.OpRet:
			var rv SymVal
			if len(in.Args) == 1 {
				rv = w.ev(st, f, in.Args[0])
			}
			caller := st.pop()
			if caller == nil {
				w.recycle(f)
				w.e.paths.Add(1)
				return false, nil
			}
			if o := rv.Obj; o != nil && !o.ReadOnly && o.num >= f.base {
				st.escape(o) // the caller's registers outlive this frame's objects
			}
			st.release(f.base)
			if f.Caller != nil && !ir.SameType(f.Caller.Typ, ir.Void) {
				*caller.reg(f.Caller) = rv
			}
			w.recycle(f)
			continue

		case ir.OpUnreachable:
			return w.endWithBug(st, BugUnreachable, "unreachable executed in "+st.Where())

		case ir.OpCall:
			callee := in.Callee
			if callee.IsDeclaration() {
				return w.endWithBug(st, BugPtrDomain, "call to undefined function @"+callee.Name)
			}
			if len(st.Frames) >= maxCallDepth {
				w.e.truncated.Add(1)
				return false, nil
			}
			nf := w.newFrame(callee, in)
			nf.base = st.nobj
			for i := range in.Args {
				nf.Regs[i] = w.ev(st, f, in.Args[i])
			}
			f.Idx++ // resume after the call on return
			st.Frames = append(st.Frames, nf)
			continue

		case ir.OpCheck:
			if !w.e.opts.Checks.Contains(in.Kind) {
				// Per-property mode: a check outside the kept subset
				// neither reports nor constrains — the path continues as
				// if the check were absent, so a filtered baseline run and
				// a run on a program sliced for the same subset agree.
				w.e.checksSkipped.Add(1)
				f.Idx++
				continue
			}
			c := w.ev(st, f, in.Args[0]).E
			if c.IsTrue() {
				f.Idx++
				continue
			}
			kind := BugCheckFailed
			switch in.Kind {
			case ir.CheckDivByZero:
				kind = BugDivByZero
			case ir.CheckBounds:
				kind = BugOutOfBounds
			case ir.CheckAssert:
				kind = BugAssertFailed
			}
			if c.IsFalse() {
				return w.endWithBug(st, kind, in.Msg)
			}
			if !w.guard(st, w.B.Not(c), kind, func() string { return in.Msg }) {
				return false, nil // every input fails the check
			}
			f.Idx++
			continue

		default:
			res, fk := w.execValue(st, f, in)
			switch res {
			case execEnd:
				return false, nil
			case execFork:
				return false, fk
			}
			f.Idx++
			continue
		}
	}
}

// jump moves the frame to target, evaluating its phis as a batch.
func (w *worker) jump(st *State, f *Frame, target *ir.Block) {
	phis := target.Phis()
	if len(phis) > 0 {
		vals := w.phiVals[:0]
		for _, phi := range phis {
			v := phi.PhiIncoming(f.Block)
			if v == nil {
				panic(fmt.Sprintf("symex: phi %s in %s has no edge from %s",
					phi.Ref(), target.Name, f.Block.Name))
			}
			vals = append(vals, w.ev(st, f, v))
			w.countInstr()
		}
		for i, phi := range phis {
			*f.reg(phi) = vals[i]
		}
		clear(vals) // the scratch must not keep a finished state's objects alive
		w.phiVals = vals[:0]
	}
	f.Prev = f.Block
	f.Block = target
	f.Idx = len(phis)
}

// ev resolves an operand to a symbolic value.
func (w *worker) ev(st *State, f *Frame, v ir.Value) SymVal {
	var sv SymVal
	switch x := v.(type) {
	case *ir.Const:
		return SymVal{E: w.B.Const(x.Typ.Bits, x.Val)}
	case *ir.Null:
		return SymVal{E: w.B.Const(64, 0), Obj: nullObj}
	case *ir.Global:
		return SymVal{E: w.B.Const(64, 0), Obj: w.e.globals[w.e.globalNum[x]]}
	case *ir.Param:
		sv = f.Regs[x.Idx]
	case *ir.Instr:
		sv = *f.reg(x)
	}
	if !sv.defined() {
		panic(fmt.Sprintf("symex: use of undefined value %s in %s", v.Ref(), st.Where()))
	}
	return sv
}

// branch decides which sides of c the path may take, under the one rule
// both fork sites (a conditional branch, a select between two objects)
// follow. A side is taken unless the solver proves it infeasible: a side
// it could not decide is followed, not dropped — it reports no bug
// unless a later query proves one (guard reports only on satYes), and
// its Failures make the verdict inconclusive. When neither side is
// decided the path concretizes instead (KLEE's solver-failure fallback):
// it follows the side a model of the current path condition takes, so
// budget failures cannot blow up the search. pT and pF are st.Part
// extended by c and by !c; each side is decided on its extension and
// then carries it, so the group verdicts decided here ride along to the
// forked states.
func (w *worker) branch(st *State, c *expr.Expr) (pT, pF *solver.Partition, takeT, takeF bool) {
	pT, pF = st.Part.Extend(c), st.Part.Extend(w.B.Not(c))
	resT, _ := w.satP(pT)
	resF, _ := w.satP(pF)
	if resT == satUnknown && resF == satUnknown {
		_, model := w.satP(st.Part)
		takeT = expr.Eval(c, model) != 0
		return pT, pF, takeT, !takeT
	}
	return pT, pF, resT != satNo, resF != satNo
}

// guard is every trap site's rule: it reports the trap when the solver
// proves bad reachable (an undecided query reports none), then assumes
// !bad unless the solver proves that infeasible. The partition it asks
// about is the one it carries forward, so each constraint is added with
// one Extend. msg is called only to report a bug. Returns false when the
// path cannot continue (every input traps).
func (w *worker) guard(st *State, bad *expr.Expr, kind BugKind, msg func() string) bool {
	if res, model := w.satP(st.Part.Extend(bad)); res == satYes {
		w.reportBug(st, kind, msg(), model)
		w.e.errorPaths.Add(1)
	}
	ok := st.Part.Extend(w.B.Not(bad))
	if res, _ := w.satP(ok); res == satNo {
		return false
	}
	st.Part = ok
	return true
}

// endWithBug concretizes the current path condition into a reproducing
// input, records the bug, and terminates the path.
func (w *worker) endWithBug(st *State, kind BugKind, msg string) (bool, []*State) {
	_, model := w.satP(st.Part)
	w.reportBug(st, kind, msg, model)
	w.e.errorPaths.Add(1)
	return false, nil
}

// execResult says how execValue left the state.
type execResult int

const (
	execOK   execResult = iota // value assigned; advance to the next instruction
	execEnd                    // path terminated (bug or contradiction)
	execFork                   // forked; both continuations are returned
)

// execValue executes a non-control instruction.
func (w *worker) execValue(st *State, f *Frame, in *ir.Instr) (execResult, []*State) {
	set := func(v SymVal) {
		if !ir.SameType(in.Typ, ir.Void) {
			*f.reg(in) = v
		}
	}

	switch {
	case in.Op.IsBinary():
		a := w.ev(st, f, in.Args[0])
		b := w.ev(st, f, in.Args[1])
		bits := in.Typ.(ir.IntType).Bits
		switch in.Op {
		case ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem:
			msg := func() string { return fmt.Sprintf("%s by zero in %s", in.Op, st.Where()) }
			if dc, ok := b.E.IsConst(); !ok {
				zero := w.B.Cmp(ir.OpEq, b.E, w.B.Const(bits, 0))
				if !w.guard(st, zero, BugDivByZero, msg) {
					return execEnd, nil // division always traps
				}
			} else if dc == 0 {
				w.endWithBug(st, BugDivByZero, msg())
				return execEnd, nil
			}
		}
		set(SymVal{E: w.B.Bin(in.Op, a.E, b.E)})
		return execOK, nil

	case in.Op.IsCmp():
		a := w.ev(st, f, in.Args[0])
		b := w.ev(st, f, in.Args[1])
		if a.Obj != nil || b.Obj != nil {
			return w.cmpPointers(st, in, a, b, set)
		}
		set(SymVal{E: w.B.Cmp(in.Op, a.E, b.E)})
		return execOK, nil
	}

	switch in.Op {
	case ir.OpSelect:
		c := w.ev(st, f, in.Args[0])
		t := w.ev(st, f, in.Args[1])
		fv := w.ev(st, f, in.Args[2])
		if cc, ok := c.E.IsConst(); ok {
			if cc != 0 {
				set(t)
			} else {
				set(fv)
			}
			return execOK, nil
		}
		if t.Obj == nil && fv.Obj == nil {
			set(SymVal{E: w.B.Select(c.E, t.E, fv.E)})
			return execOK, nil
		}
		// Pointer select: merge offsets when the object agrees, else
		// branch on the condition.
		if t.Obj == fv.Obj {
			set(SymVal{E: w.B.Select(c.E, t.E, fv.E), Obj: t.Obj})
			return execOK, nil
		}
		switch pT, pF, takeT, takeF := w.branch(st, c.E); {
		case takeT && takeF:
			other := w.fork(st)
			of := other.top()
			st.Part = pT
			set(t)
			f.Idx++
			other.Part = pF
			*of.reg(in) = w.ev(other, of, in.Args[2])
			of.Idx++
			return execFork, []*State{other, st}
		case takeT:
			st.Part = pT
			set(t)
		case takeF:
			st.Part = pF
			set(fv)
		default:
			return execEnd, nil
		}
		return execOK, nil

	case ir.OpZExt, ir.OpSExt, ir.OpTrunc:
		a := w.ev(st, f, in.Args[0])
		set(SymVal{E: w.B.Cast(in.Op, a.E, in.Typ.(ir.IntType).Bits)})
		return execOK, nil

	case ir.OpAlloca:
		var zero SymVal
		if _, ok := in.Allocated.(ir.PtrType); ok {
			zero = SymVal{E: w.B.Const(64, 0), Obj: nullObj}
		} else {
			zero = SymVal{E: w.B.Const(in.Allocated.(ir.IntType).Bits, 0)}
		}
		cells := make([]SymVal, in.Count)
		for i := range cells {
			cells[i] = zero
		}
		obj := &MemObject{Name: f.lay.allocas[f.lay.index(in)], Elem: in.Allocated, Count: in.Count}
		st.alloc(obj, cells)
		set(SymVal{E: w.B.Const(64, 0), Obj: obj})
		return execOK, nil

	case ir.OpGEP:
		p := w.ev(st, f, in.Args[0])
		idx := w.ev(st, f, in.Args[1])
		if p.nullPtr() {
			w.endWithBug(st, BugNullDeref, "pointer arithmetic on null in "+st.Where())
			return execEnd, nil
		}
		set(SymVal{E: w.B.Bin(ir.OpAdd, p.E, idx.E), Obj: p.Obj})
		return execOK, nil

	case ir.OpPtrDiff:
		a := w.ev(st, f, in.Args[0])
		b := w.ev(st, f, in.Args[1])
		if a.Obj != b.Obj {
			w.endWithBug(st, BugPtrDomain, "ptrdiff across objects in "+st.Where())
			return execEnd, nil
		}
		if a.nullPtr() {
			set(SymVal{E: w.B.Const(64, 0)})
			return execOK, nil
		}
		set(SymVal{E: w.B.Bin(ir.OpSub, a.E, b.E)})
		return execOK, nil

	case ir.OpLoad:
		p := w.ev(st, f, in.Args[0])
		if p.nullPtr() {
			w.endWithBug(st, BugNullDeref, "load from null in "+st.Where())
			return execEnd, nil
		}
		v, res := w.loadCell(st, p.Obj, p.E)
		if res != execOK {
			return res, nil
		}
		set(v)
		return execOK, nil

	case ir.OpStore:
		v := w.ev(st, f, in.Args[0])
		p := w.ev(st, f, in.Args[1])
		if p.nullPtr() {
			w.endWithBug(st, BugNullDeref, "store to null in "+st.Where())
			return execEnd, nil
		}
		if p.Obj.ReadOnly {
			w.endWithBug(st, BugStoreConst, "store to read-only "+p.Obj.Name)
			return execEnd, nil
		}
		return w.storeCell(st, p.Obj, p.E, v)
	}
	panic("symex: cannot execute " + in.Op.String())
}

// cmpPointers compares two pointers: by object, then by offset within
// one. Two pointers name the same object exactly when they hold the same
// descriptor — a state never gives two live objects one. Verified IR
// never mixes a pointer and an integer in a compare (ir/verify.go
// rejects it), so both operands are pointers and null is the one object
// nullObj.
func (w *worker) cmpPointers(st *State, in *ir.Instr, a, b SymVal, set func(SymVal)) (execResult, []*State) {
	boolConst := func(v bool) {
		set(SymVal{E: w.B.Bool(v)})
	}
	switch in.Op {
	case ir.OpEq, ir.OpNe:
		eq := in.Op == ir.OpEq
		switch {
		case a.Obj == nullObj && b.Obj == nullObj:
			boolConst(eq)
		case a.Obj != b.Obj:
			boolConst(!eq)
		default:
			c := w.B.Cmp(ir.OpEq, a.E, b.E)
			if !eq {
				c = w.B.Not(c)
			}
			set(SymVal{E: c})
		}
		return execOK, nil
	}
	// Relational: only within one object.
	if a.Obj != b.Obj {
		w.endWithBug(st, BugPtrDomain, "relational pointer comparison across objects in "+st.Where())
		return execEnd, nil
	}
	if a.Obj == nullObj {
		boolConst(in.Op == ir.OpULe || in.Op == ir.OpUGe)
		return execOK, nil
	}
	// Offsets are signed quantities in elements; pointer order within an
	// object is offset order.
	var op ir.Op
	switch in.Op {
	case ir.OpULt:
		op = ir.OpSLt
	case ir.OpULe:
		op = ir.OpSLe
	case ir.OpUGt:
		op = ir.OpSGt
	default:
		op = ir.OpSGe
	}
	set(SymVal{E: w.B.Cmp(op, a.E, b.E)})
	return execOK, nil
}

// loadCell reads obj[off], handling symbolic offsets with bounds
// checking and ite-chains (or a single Read node over concrete tables).
func (w *worker) loadCell(st *State, obj *MemObject, off *expr.Expr) (SymVal, execResult) {
	if oc, ok := off.IsConst(); ok {
		if int64(oc) < 0 || int64(oc) >= obj.Count {
			w.endWithBug(st, BugOutOfBounds,
				fmt.Sprintf("load %s[%d] (size %d) in %s", obj.Name, int64(oc), obj.Count, st.Where()))
			return SymVal{}, execEnd
		}
		return st.Cell(obj, int64(oc)), execOK
	}
	if !w.boundsCheck(st, obj, off, "load") {
		return SymVal{}, execEnd
	}
	if t := obj.table.Load(); t != nil { // cell widths agree; the scan below also ends on the last
		return SymVal{E: w.B.Read(*t, st.Cell(obj, obj.Count-1).E.Bits, off)}, execOK
	}
	// All cells must be integers for a symbolic read.
	bits := 0
	allConst := true
	for i := int64(0); i < obj.Count; i++ {
		c := st.Cell(obj, i)
		if c.Obj != nil {
			w.endWithBug(st, BugPtrDomain,
				"symbolic index into pointer-holding object "+obj.Name)
			return SymVal{}, execEnd
		}
		bits = c.E.Bits
		if _, ok := c.E.IsConst(); !ok {
			allConst = false
		}
	}
	if allConst {
		table := make([]uint64, obj.Count)
		for i := range table {
			table[i], _ = st.Cell(obj, int64(i)).E.IsConst()
		}
		if obj.ReadOnly {
			// Never written and shared by every state and worker: build
			// the table once. Racing builders publish equal tables.
			obj.table.Store(&table)
		}
		return SymVal{E: w.B.Read(table, bits, off)}, execOK
	}
	// ite chain over the (small) object.
	acc := st.Cell(obj, obj.Count-1).E
	for i := obj.Count - 2; i >= 0; i-- {
		hit := w.B.Cmp(ir.OpEq, off, w.B.Const(64, uint64(i)))
		acc = w.B.Select(hit, st.Cell(obj, i).E, acc)
	}
	return SymVal{E: acc}, execOK
}

// storeCell writes obj[off] = v.
func (w *worker) storeCell(st *State, obj *MemObject, off *expr.Expr, v SymVal) (execResult, []*State) {
	if oc, ok := off.IsConst(); ok {
		if int64(oc) < 0 || int64(oc) >= obj.Count {
			w.endWithBug(st, BugOutOfBounds,
				fmt.Sprintf("store %s[%d] (size %d) in %s", obj.Name, int64(oc), obj.Count, st.Where()))
			return execEnd, nil
		}
		if o := v.Obj; o != nil && !o.ReadOnly && o.num > obj.num {
			st.escape(o) // obj may outlive it
		}
		st.setCell(obj, int64(oc), v)
		return execOK, nil
	}
	if !w.boundsCheck(st, obj, off, "store") {
		return execEnd, nil
	}
	if v.Obj != nil {
		w.endWithBug(st, BugPtrDomain,
			"symbolic-offset store of a pointer into "+obj.Name)
		return execEnd, nil
	}
	for i := int64(0); i < obj.Count; i++ {
		old := st.Cell(obj, i)
		if old.Obj != nil {
			w.endWithBug(st, BugPtrDomain,
				"symbolic-offset store into pointer-holding object "+obj.Name)
			return execEnd, nil
		}
		hit := w.B.Cmp(ir.OpEq, off, w.B.Const(64, uint64(i)))
		st.setCell(obj, i, SymVal{E: w.B.Select(hit, v.E, old.E)})
	}
	return execOK, nil
}

// boundsCheck guards an access at a symbolic offset: it reports a bug
// if off can be out of bounds and constrains the path to in-bounds
// accesses. Returns false when every offset is out of bounds.
func (w *worker) boundsCheck(st *State, obj *MemObject, off *expr.Expr, what string) bool {
	oob := w.B.Cmp(ir.OpUGe, off, w.B.Const(64, uint64(obj.Count)))
	return w.guard(st, oob, BugOutOfBounds, func() string {
		return fmt.Sprintf("%s %s out of bounds (size %d) in %s", what, obj.Name, obj.Count, st.Where())
	})
}
