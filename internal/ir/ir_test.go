package ir

import (
	"testing"
	"testing/quick"
)

// buildDiamond constructs: entry -> (then|else) -> join.
func buildDiamond() (*Module, *Function) {
	m := NewModule("t")
	f := NewFunction("f", FuncType{Ret: I32, Params: []Type{I32}}, "x")
	m.AddFunc(f)
	entry := f.NewBlock("entry")
	thenB := f.NewBlock("then")
	elseB := f.NewBlock("else")
	join := f.NewBlock("join")

	bd := NewBuilder(f, entry)
	c := bd.Cmp(OpSGt, f.Params[0], ConstInt(I32, 0))
	bd.CondBr(c, thenB, elseB)

	bd.SetBlock(thenB)
	v1 := bd.Bin(OpAdd, f.Params[0], ConstInt(I32, 1))
	bd.Br(join)

	bd.SetBlock(elseB)
	v2 := bd.Bin(OpSub, f.Params[0], ConstInt(I32, 1))
	bd.Br(join)

	bd.SetBlock(join)
	phi := bd.Phi(I32)
	phi.SetPhiIncoming(thenB, v1)
	phi.SetPhiIncoming(elseB, v2)
	bd.Ret(phi)
	return m, f
}

func TestVerifyAcceptsDiamond(t *testing.T) {
	m, _ := buildDiamond()
	if err := VerifyModule(m); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesBadPhi(t *testing.T) {
	m, f := buildDiamond()
	// Remove one phi edge: verifier must complain.
	join := f.Blocks[3]
	join.Phis()[0].RemovePhiIncoming(f.Blocks[1])
	if err := VerifyModule(m); err == nil {
		t.Fatal("expected phi edge error")
	}
}

func TestVerifyCatchesDominance(t *testing.T) {
	m, f := buildDiamond()
	// Use a then-block value directly in join (not through the phi).
	join := f.Blocks[3]
	thenVal := f.Blocks[1].Instrs[0]
	ret := join.Term()
	ret.Args[0] = thenVal
	if err := VerifyModule(m); err == nil {
		t.Fatal("expected dominance error")
	}
}

func TestVerifyCatchesTypeErrors(t *testing.T) {
	m := NewModule("t")
	f := NewFunction("f", FuncType{Ret: I32, Params: []Type{I32}}, "x")
	m.AddFunc(f)
	b := f.NewBlock("entry")
	// Hand-build a width-mismatched add.
	bad := &Instr{Op: OpAdd, Typ: I32, Args: []Value{f.Params[0], ConstInt(I64, 1)}}
	b.Append(bad)
	b.Append(&Instr{Op: OpRet, Typ: Void, Args: []Value{bad}})
	if err := VerifyModule(m); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestDominators(t *testing.T) {
	_, f := buildDiamond()
	dt := ComputeDom(f)
	entry, thenB, elseB, join := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	if dt.Idom(join) != entry {
		t.Errorf("idom(join) = %v, want entry", dt.Idom(join).Name)
	}
	if !dt.Dominates(entry, join) || !dt.Dominates(entry, thenB) {
		t.Error("entry must dominate everything")
	}
	if dt.Dominates(thenB, join) || dt.Dominates(elseB, join) {
		t.Error("branch arms must not dominate the join")
	}
	df := dt.DominanceFrontiersInto(BlockTable{})
	if fr := df.Of(thenB); len(fr) != 1 || fr[0] != join {
		t.Errorf("DF(then) = %v, want [join]", fr)
	}
}

func buildLoop() (*Module, *Function) {
	m := NewModule("t")
	f := NewFunction("f", FuncType{Ret: I32, Params: []Type{I32}}, "n")
	m.AddFunc(f)
	entry := f.NewBlock("entry")
	header := f.NewBlock("header")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")

	bd := NewBuilder(f, entry)
	bd.Br(header)

	bd.SetBlock(header)
	iv := bd.Phi(I32)
	cond := bd.Cmp(OpSLt, iv, f.Params[0])
	bd.CondBr(cond, body, exit)

	bd.SetBlock(body)
	next := bd.Bin(OpAdd, iv, ConstInt(I32, 1))
	bd.Br(header)

	iv.SetPhiIncoming(entry, ConstInt(I32, 0))
	iv.SetPhiIncoming(body, next)

	bd.SetBlock(exit)
	bd.Ret(iv)
	return m, f
}

func TestLoopDiscovery(t *testing.T) {
	m, f := buildLoop()
	if err := VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	dt := ComputeDom(f)
	loops := FindLoops(f, dt)
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != f.Blocks[1] {
		t.Errorf("header = %s", l.Header.Name)
	}
	if l.NumBlocks() != 2 {
		t.Errorf("loop has %d blocks, want 2 (header+body)", l.NumBlocks())
	}
	if len(l.Latches) != 1 || l.Latches[0] != f.Blocks[2] {
		t.Errorf("latches = %v", l.Latches)
	}
	if len(l.Exits) != 1 || l.Exits[0].To != f.Blocks[3] {
		t.Errorf("exits = %v", l.Exits)
	}
	preds := f.Preds()
	if ph := l.Preheader(preds); ph != f.Blocks[0] {
		t.Errorf("preheader = %v", ph)
	}
}

func TestCloneBlocks(t *testing.T) {
	m, f := buildLoop()
	region := []*Block{f.Blocks[1], f.Blocks[2]}
	var cm CloneMap
	CloneBlocks(f, region, &cm)
	if len(f.Blocks) != 6 || cm.Block(f.Blocks[0]) != nil {
		t.Fatalf("cloned %d blocks", len(f.Blocks)-4)
	}
	// Clone internal edges must point at clones.
	ch := cm.Block(f.Blocks[1])
	cb := cm.Block(f.Blocks[2])
	if cb.Term().Succs[0] != ch {
		t.Error("cloned back edge must target the cloned header")
	}
	// The cloned header's branch condition must be the cloned compare.
	origCond := f.Blocks[1].Instrs[1]
	if cm.Lookup(origCond) == Value(origCond) {
		t.Error("condition was not remapped")
	}
	// A refill answers for the new clone only.
	CloneBlocks(f, region[1:], &cm)
	if cm.Block(f.Blocks[1]) != nil || cm.Lookup(origCond) != Value(origCond) {
		t.Error("a refilled CloneMap still answers for the previous clone")
	}
	if cm.Block(f.Blocks[2]) == nil {
		t.Error("the refill did not record its clone")
	}
	_ = m
}

func TestMaskSignExtend(t *testing.T) {
	if Mask(8, 0x1FF) != 0xFF {
		t.Error("Mask(8, 0x1FF)")
	}
	if Mask(64, ^uint64(0)) != ^uint64(0) {
		t.Error("Mask(64) must be identity")
	}
	if SignExtend(8, 0xFF) != -1 {
		t.Errorf("SignExtend(8, 0xFF) = %d", SignExtend(8, 0xFF))
	}
	if SignExtend(8, 0x7F) != 127 {
		t.Error("SignExtend(8, 0x7F)")
	}
	if SignExtend(32, 0x80000000) != -2147483648 {
		t.Error("SignExtend(32, min)")
	}
}

// TestEvalBinProperties checks algebraic identities of the shared scalar
// semantics with random operands.
func TestEvalBinProperties(t *testing.T) {
	for _, bits := range []int{8, 32, 64} {
		bits := bits
		commutes := func(a, b uint64) bool {
			for _, op := range []Op{OpAdd, OpMul, OpAnd, OpOr, OpXor} {
				x, _ := EvalBin(op, bits, a, b)
				y, _ := EvalBin(op, bits, b, a)
				if x != y {
					return false
				}
			}
			return true
		}
		if err := quick.Check(commutes, nil); err != nil {
			t.Errorf("i%d commutativity: %v", bits, err)
		}
		subSelf := func(a uint64) bool {
			x, _ := EvalBin(OpSub, bits, a, a)
			return x == 0
		}
		if err := quick.Check(subSelf, nil); err != nil {
			t.Errorf("i%d x-x=0: %v", bits, err)
		}
		masked := func(a, b uint64) bool {
			for op := OpAdd; op <= OpAShr; op++ {
				r, ok := EvalBin(op, bits, a, b)
				if ok && r != Mask(bits, r) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(masked, nil); err != nil {
			t.Errorf("i%d results masked: %v", bits, err)
		}
	}
}

// TestEvalCmpTrichotomy: exactly one of <, ==, > holds (signed and
// unsigned).
func TestEvalCmpTrichotomy(t *testing.T) {
	prop := func(a, b uint64) bool {
		for _, bits := range []int{8, 32, 64} {
			u := 0
			if EvalCmp(OpULt, bits, a, b) {
				u++
			}
			if EvalCmp(OpEq, bits, a, b) {
				u++
			}
			if EvalCmp(OpUGt, bits, a, b) {
				u++
			}
			s := 0
			if EvalCmp(OpSLt, bits, a, b) {
				s++
			}
			if EvalCmp(OpEq, bits, a, b) {
				s++
			}
			if EvalCmp(OpSGt, bits, a, b) {
				s++
			}
			if u != 1 || s != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDivisionSemantics(t *testing.T) {
	if _, ok := EvalBin(OpUDiv, 32, 5, 0); ok {
		t.Error("udiv by zero must not evaluate")
	}
	if _, ok := EvalBin(OpSRem, 32, 5, 0); ok {
		t.Error("srem by zero must not evaluate")
	}
	// INT_MIN / -1 wraps.
	r, ok := EvalBin(OpSDiv, 8, 0x80, 0xFF)
	if !ok || r != 0x80 {
		t.Errorf("sdiv INT_MIN/-1 = %x ok=%v, want 80", r, ok)
	}
	// INT_MIN %% -1 == 0.
	r, ok = EvalBin(OpSRem, 8, 0x80, 0xFF)
	if !ok || r != 0 {
		t.Errorf("srem INT_MIN%%-1 = %x, want 0", r)
	}
	// Oversized shifts.
	if r, _ := EvalBin(OpShl, 8, 1, 9); r != 0 {
		t.Error("shl by >= width must give 0")
	}
	if r, _ := EvalBin(OpAShr, 8, 0x80, 200); r != 0xFF {
		t.Error("ashr by >= width must sign-fill")
	}
}

func TestReplaceUses(t *testing.T) {
	_, f := buildDiamond()
	add := f.Blocks[1].Instrs[0]
	n := ReplaceUses(f, add, ConstInt(I32, 7))
	if n != 1 {
		t.Errorf("replaced %d uses, want 1 (the phi)", n)
	}
	if CountUses(f, add) != 0 {
		t.Error("still has uses")
	}
}

func TestRemoveUnreachable(t *testing.T) {
	m, f := buildDiamond()
	dead := f.NewBlock("dead")
	bd := NewBuilder(f, dead)
	bd.Br(f.Blocks[3]) // jumps into join, but nothing reaches dead
	// The join phi gains a bogus edge that removal must clean up.
	f.Blocks[3].Phis()[0].SetPhiIncoming(dead, ConstInt(I32, 9))
	if n := RemoveUnreachable(f); n != 1 {
		t.Fatalf("removed %d blocks, want 1", n)
	}
	if err := VerifyModule(m); err != nil {
		t.Fatal(err)
	}
}

func TestModulePrinting(t *testing.T) {
	m, _ := buildDiamond()
	text := m.String()
	for _, want := range []string{"define i32 @f", "phi i32", "icmp sgt", "ret i32"} {
		found := false
		for i := 0; i+len(want) <= len(text); i++ {
			if text[i:i+len(want)] == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("printed IR missing %q:\n%s", want, text)
		}
	}
}
