package passes_test

import (
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/ir"
	"overify/internal/passes"
	"overify/internal/pipeline"
)

// compileWith compiles a corpus program at level under cost and returns
// its umain.
func compileWith(t *testing.T, prog string, level pipeline.Level, cost passes.CostModel) *ir.Function {
	t.Helper()
	p, ok := coreutils.Get(prog)
	if !ok {
		t.Fatalf("%s not in corpus", prog)
	}
	c, err := core.CompileWithConfig(p.Name, p.Src, pipeline.Config{Level: level, Cost: cost}, core.DefaultLibc(level))
	if err != nil {
		t.Fatal(err)
	}
	return c.Mod.Func("umain")
}

// newlineForks counts f's conditional branches on `x == '\n'`.
func newlineForks(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		if c, ok := t.Args[0].(*ir.Instr); ok && c.Op == ir.OpEq {
			if k, ok := c.Args[1].(*ir.Const); ok && k.Val == '\n' {
				n++
			}
		}
	}
	return n
}

// TestIfConvertKeepsDeferredForks: at -OVERIFY a branch stays when its
// select would only move the fork to a later branch that stays. nl's
// `if (input[i] == '\n')` sets at_start, which the next iteration's
// `if (at_start)` forks on; tac's `if (input[i] == '\n') start = i + 1`
// sets the bound the inner `while (j < end)` loop forks on. Both
// '\n' tests stay branches, and the pass without the check converts
// them. The sites where a select does save a fork convert as before,
// byte for byte: wc's Listing 2 loop (branchless but for its exit),
// cksum's bit loop (its select feeds only its own branch), rot13rounds'
// `c >= 'a' && c <= 'z'` and tac's `||` (a select the next branch reads
// directly), and fold's `if (w == 0) w = 1` (the same, outside the
// loop). CPUCost() leaves the check off, so -O1…-O3 run the pass
// without it and TestCompiledIRPinned holds their IR byte for byte.
func TestIfConvertKeepsDeferredForks(t *testing.T) {
	priced := pipeline.VerifyCost()
	unpriced := priced
	unpriced.KeepDeferredForks = false
	if !priced.KeepDeferredForks || pipeline.CPUCost().KeepDeferredForks {
		t.Fatal("only VerifyCost prices if-conversion sites")
	}

	for _, prog := range []string{"nl", "tac"} {
		kept := compileWith(t, prog, pipeline.OVerify, priced)
		if n := newlineForks(kept); n != 1 {
			t.Errorf("%s -OVERIFY: %d branches on '\\n', want the one whose select a later branch forks on:\n%s", prog, n, kept)
		}
		if n := newlineForks(compileWith(t, prog, pipeline.OVerify, unpriced)); n != 0 {
			t.Errorf("%s without the check: %d branches on '\\n', want 0", prog, n)
		}
	}
	// tac's `||` still merges into one fork: a select on the '\n' test
	// that the loop's branch reads directly.
	if f := compileWith(t, "tac", pipeline.OVerify, priced); countOp(f, ir.OpSelect) != 1 {
		t.Errorf("tac -OVERIFY: want exactly the || select:\n%s", f)
	}

	for _, prog := range []string{"wc", "cksum", "rot13rounds", "fold"} {
		kept := compileWith(t, prog, pipeline.OVerify, priced)
		if got, want := kept.String(), compileWith(t, prog, pipeline.OVerify, unpriced).String(); got != want {
			t.Errorf("%s -OVERIFY: the check kept a branch whose select saves a fork:\n%s\nwithout the check:\n%s", prog, got, want)
		}
		if countOp(kept, ir.OpSelect) == 0 {
			t.Errorf("%s -OVERIFY: no select; the case exercises nothing:\n%s", prog, kept)
		}
	}
	if f := compileWith(t, "wc", pipeline.OVerify, priced); f.NumBranches() != 1 {
		t.Errorf("wc -OVERIFY: %d conditional branches, want the loop exit alone:\n%s", f.NumBranches(), f)
	}
}

func countOp(f *ir.Function, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}
