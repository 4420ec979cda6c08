package solver

import (
	"fmt"
	"sync"
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

// buildFuzzDAG interprets data as a stack program over four byte
// variables, producing 1-bit constraint expressions. Every operator the
// tape compiler handles (bin/cmp/select/cast/read, with folding done by
// the builder) is reachable.
func buildFuzzDAG(b *expr.Builder, vs []*expr.Var, data []byte) []*expr.Expr {
	table := classTable()
	stack := []*expr.Expr{b.Cast(ir.OpZExt, b.Var(vs[0]), 32)}
	var bools []*expr.Expr
	pop := func() *expr.Expr {
		e := stack[len(stack)-1]
		if len(stack) > 1 {
			stack = stack[:len(stack)-1]
		}
		return e
	}
	binOps := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr}
	cmpOps := []ir.Op{ir.OpEq, ir.OpNe, ir.OpULt, ir.OpULe, ir.OpSLt, ir.OpSGe}
	for i := 0; i+1 < len(data) && len(bools) < 8; i += 2 {
		op, arg := data[i], uint64(data[i+1])
		switch op % 7 {
		case 0:
			stack = append(stack, b.Cast(ir.OpZExt, b.Var(vs[int(arg)%len(vs)]), 32))
		case 1:
			stack = append(stack, b.Const(32, arg*arg+arg))
		case 2:
			x, y := pop(), pop()
			stack = append(stack, b.Bin(binOps[int(arg)%len(binOps)], x, y))
		case 3:
			x, y := pop(), pop()
			c := b.Cmp(cmpOps[int(arg)%len(cmpOps)], x, y)
			bools = append(bools, c)
			stack = append(stack, b.Cast(ir.OpZExt, c, 32))
		case 4:
			c := b.Cmp(ir.OpNe, pop(), b.Const(32, arg))
			x, y := pop(), pop()
			stack = append(stack, b.Select(c, x, y))
		case 5:
			x := b.Cast(ir.OpTrunc, pop(), 8)
			stack = append(stack, b.Cast(ir.OpZExt, x, 32))
		case 6:
			idx := b.Cast(ir.OpZExt, b.Cast(ir.OpTrunc, pop(), 8), 64)
			stack = append(stack, b.Cast(ir.OpZExt, b.Read(table, 8, idx), 32))
		}
	}
	if len(bools) == 0 {
		bools = append(bools, b.Cmp(ir.OpNe, pop(), b.Const(32, 0)))
	}
	live := bools[:0]
	for _, c := range bools {
		if c.Kind != expr.KConst {
			live = append(live, c)
		}
	}
	return live
}

// FuzzCompiledEval is the differential oracle for the compiled
// constraint evaluator: on random expression DAGs and assignments, the
// tape must agree with expr.Eval under full assignments and with
// expr.PartialEvaluator (known-ness AND value) under partial ones,
// bound with sibling values over one another, and after retractions;
// and the unary filter's column kernel must agree with the tape's
// committed path (checkFilterColumn). Two goroutines share one compiled
// tape to assert the tape itself is immutable (meaningful under -race).
func FuzzCompiledEval(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(0x0f), uint64(12345))
	f.Add([]byte{6, 2, 3, 1, 4, 4, 2, 9, 3, 0, 5, 5}, byte(0x03), uint64(999))
	f.Add([]byte{2, 2, 2, 2, 3, 3, 3, 3, 4, 4}, byte(0x05), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, assignMask byte, seed uint64) {
		b := expr.NewBuilder()
		vs := vars(4)
		cs := buildFuzzDAG(b, vs, data)
		if len(cs) == 0 {
			return
		}
		for _, g := range PartitionOf(cs).Groups() {
			tp := compileGroup(g)
			var wg sync.WaitGroup
			for worker := 0; worker < 2; worker++ {
				wg.Add(1)
				go func(worker int) {
					defer wg.Done()
					ts := newTapeState(tp)
					// Partial assignment: variables picked by the mask.
					asn := make(map[*expr.Var]uint64)
					for vi, v := range tp.vars {
						if assignMask&(1<<uint(vi%8)) != 0 {
							val := (seed >> uint(8*vi)) & 0xff
							asn[v] = val
							ts.assign(int32(vi), val)
						}
					}
					// Each bound byte takes two more values over the last,
					// as the DFS binds siblings: a reader the walk misses,
					// or a dirty bit it leaves, shows below.
					for k := uint(1); k <= 2; k++ {
						for vi, v := range tp.vars {
							if _, ok := asn[v]; ok {
								val := (seed >> uint(8*vi+13*int(k))) & 0xff
								asn[v] = val
								ts.assign(int32(vi), val)
							}
						}
					}
					pe := expr.NewPartialEvaluator(asn)
					for ci, c := range g.Constraints() {
						known, val := ts.root(ci)
						want := pe.Eval(c)
						if known != want.Known || (known && val != want.Val) {
							t.Errorf("worker %d partial: constraint %d tape=(%v,%d) partial=(%v,%d) for %s",
								worker, ci, known, val, want.Known, want.Val, c)
						}
					}
					// Kernel differential: wherever this assignment leaves
					// a constraint one open variable, the unary filter's
					// column evaluation must agree, slot by slot and value
					// by value, with the assign/evaluate/retract cycle.
					checkFilterColumn(t, ts, fullDomain(8), fmt.Sprintf("worker %d", worker))
					// Complete the assignment: tape must agree with Eval.
					for vi, v := range tp.vars {
						if _, ok := asn[v]; !ok {
							val := (seed >> uint(4*vi+3)) & 0xff
							asn[v] = val
							ts.assign(int32(vi), val)
						}
					}
					for ci, c := range g.Constraints() {
						known, val := ts.root(ci)
						if !known {
							t.Fatalf("worker %d: fully assigned constraint %d unknown", worker, ci)
						}
						if want := expr.Eval(c, modelOf(asn)); val != want {
							t.Errorf("worker %d full: constraint %d tape=%d eval=%d for %s",
								worker, ci, val, want, c)
						}
					}
					// Retract half the variables: must match a fresh
					// partial evaluation of the remainder.
					for vi, v := range tp.vars {
						if vi%2 == 0 {
							delete(asn, v)
							ts.unassign(int32(vi))
						}
					}
					pe2 := expr.NewPartialEvaluator(asn)
					for ci, c := range g.Constraints() {
						known, val := ts.root(ci)
						want := pe2.Eval(c)
						if known != want.Known || (known && val != want.Val) {
							t.Errorf("worker %d retract: constraint %d tape=(%v,%d) partial=(%v,%d) for %s",
								worker, ci, known, val, want.Known, want.Val, c)
						}
					}
				}(worker)
			}
			wg.Wait()
		}
	})
}

// modelOf is the model binding what a partial evaluator's assignment
// binds.
func modelOf(asn map[*expr.Var]uint64) expr.Model {
	m := make(expr.Model, 0, len(asn))
	for v, val := range asn {
		m = append(m, expr.Binding{Var: v, Val: val})
	}
	return m
}
