package passes_test

import (
	"math"
	"strings"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/frontend"
	"overify/internal/interp"
	"overify/internal/ir"
	"overify/internal/passes"
	"overify/internal/pipeline"
)

// run compiles src, applies the pass list, verifies the IR, and returns
// the module.
func run(t *testing.T, src string, seq ...passes.Pass) (*ir.Module, *passes.Context) {
	t.Helper()
	mod, err := frontend.Lower("t", src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	cx := &passes.Context{Cost: pipeline.VerifyCost()}
	for _, p := range seq {
		p.Run(mod, cx)
		if err := ir.VerifyModule(mod); err != nil {
			t.Fatalf("after %s: %v", p.Name(), err)
		}
	}
	return mod, cx
}

// exec runs fn(args...) on the interpreter.
func exec(t *testing.T, mod *ir.Module, fn string, args ...interp.Value) int64 {
	t.Helper()
	m := interp.NewMachine(mod, interp.Options{})
	ret, err := m.Call(fn, args...)
	if err != nil {
		t.Fatalf("run %s: %v", fn, err)
	}
	return ir.SignExtend(32, ret.Bits)
}

func i32(v int64) interp.Value { return interp.IntVal(ir.I32, uint64(v)) }

func cleanup() []passes.Pass {
	return []passes.Pass{passes.Simplify(), passes.CSE(), passes.SimplifyCFG(), passes.DCE()}
}

func TestMem2RegRemovesMemoryOps(t *testing.T) {
	src := `int f(int a, int b) { int x = a; int y = b; x = x + y; return x; }`
	mod, cx := run(t, src, passes.Mem2Reg())
	if cx.Stats.AllocasPromoted == 0 {
		t.Fatal("no allocas promoted")
	}
	f := mod.Func("f")
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca || in.Op == ir.OpLoad || in.Op == ir.OpStore {
				t.Errorf("residual memory op %s", in)
			}
		}
	}
	if got := exec(t, mod, "f", i32(2), i32(3)); got != 5 {
		t.Errorf("f(2,3) = %d", got)
	}
}

func TestMem2RegInsertsPhis(t *testing.T) {
	src := `int f(int c) { int x = 1; if (c) { x = 2; } return x; }`
	mod, _ := run(t, src, passes.Mem2Reg())
	f := mod.Func("f")
	phis := 0
	for _, b := range f.Blocks {
		phis += len(b.Phis())
	}
	if phis == 0 {
		t.Error("expected a phi at the join")
	}
	if exec(t, mod, "f", i32(0)) != 1 || exec(t, mod, "f", i32(5)) != 2 {
		t.Error("wrong semantics after promotion")
	}
}

func TestMem2RegKeepsEscapedAllocas(t *testing.T) {
	// The array's address flows into GEP: not promotable.
	src := `int f(int i) { int a[3]; a[0] = 7; a[1] = 8; a[2] = 9; return a[i % 3]; }`
	mod, _ := run(t, src, passes.Mem2Reg())
	f := mod.Func("f")
	found := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca {
				found = true
			}
		}
	}
	if !found {
		t.Error("array alloca must survive")
	}
	if exec(t, mod, "f", i32(4)) != 8 {
		t.Error("wrong value")
	}
}

func TestSimplifyFoldsConstants(t *testing.T) {
	src := `int f(int x) { int y = x; x -= y; return x + 3 * 4 - 12; }`
	mod, _ := run(t, src, append([]passes.Pass{passes.Mem2Reg()}, cleanup()...)...)
	f := mod.Func("f")
	// The paper's §3 example: x = input(); y = x; x -= y  =>  x == 0.
	if f.NumInstrs() > 2 {
		t.Errorf("expected ~ret 0, got %d instrs:\n%s", f.NumInstrs(), f)
	}
	if exec(t, mod, "f", i32(123)) != 0 {
		t.Error("wrong fold")
	}
}

func TestSimplifyCFGFoldsConstBranch(t *testing.T) {
	src := `int f(int x) { if (1) { return x; } return 0 - x; }`
	mod, _ := run(t, src, append([]passes.Pass{passes.Mem2Reg()}, cleanup()...)...)
	if mod.Func("f").NumBranches() != 0 {
		t.Errorf("constant branch not folded:\n%s", mod.Func("f"))
	}
}

func TestIfConvertMakesSelects(t *testing.T) {
	src := `int max(int a, int b) { int m; if (a > b) { m = a; } else { m = b; } return m; }`
	mod, _ := run(t, src,
		append(append([]passes.Pass{passes.Mem2Reg()}, cleanup()...),
			passes.IfConvert(), passes.SimplifyCFG())...)
	f := mod.Func("max")
	if f.NumBranches() != 0 {
		t.Errorf("branch not converted:\n%s", f)
	}
	hasSelect := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpSelect {
				hasSelect = true
			}
		}
	}
	if !hasSelect {
		t.Error("no select produced")
	}
	if exec(t, mod, "max", i32(3), i32(9)) != 9 || exec(t, mod, "max", i32(9), i32(3)) != 9 {
		t.Error("max broken")
	}
}

func TestIfConvertRespectsSideEffects(t *testing.T) {
	// The store in the arm must prevent speculation.
	src := `
	int g;
	int f(int c) { if (c) { g = 1; } return g; }`
	mod, cx := run(t, src,
		append(append([]passes.Pass{passes.Mem2Reg()}, cleanup()...), passes.IfConvert())...)
	if cx.Stats.BranchesConverted != 0 {
		t.Error("must not speculate stores")
	}
	if mod.Func("f").NumBranches() != 1 {
		t.Error("branch should remain")
	}
}

func TestInlineReplacesCall(t *testing.T) {
	src := `
	int sq(int x) { return x * x; }
	int f(int a) { return sq(a) + sq(a + 1); }`
	mod, cx := run(t, src, passes.Inline())
	if cx.Stats.FunctionsInlined != 2 {
		t.Errorf("inlined %d call sites, want 2", cx.Stats.FunctionsInlined)
	}
	for _, b := range mod.Func("f").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				t.Error("call should be gone")
			}
		}
	}
	if exec(t, mod, "f", i32(3)) != 25 {
		t.Error("wrong result after inlining")
	}
}

func TestInlineRespectsThreshold(t *testing.T) {
	src := `
	int sq(int x) { return x * x; }
	int f(int a) { return sq(a); }`
	mod, err := frontend.Lower("t", src)
	if err != nil {
		t.Fatal(err)
	}
	cost := pipeline.CPUCost()
	cost.InlineThreshold = 1 // nothing fits
	cx := &passes.Context{Cost: cost}
	passes.Inline().Run(mod, cx)
	if cx.Stats.FunctionsInlined != 0 {
		t.Error("threshold ignored")
	}
}

func TestUnrollDissolvesCountedLoop(t *testing.T) {
	src := `int f(void) { int s = 0; for (int i = 0; i < 5; i++) { s += i; } return s; }`
	mod, cx := run(t, src,
		append(append([]passes.Pass{passes.Mem2Reg()}, cleanup()...),
			passes.Unroll(), passes.Simplify(), passes.SimplifyCFG(), passes.DCE())...)
	if cx.Stats.LoopsPeeled == 0 {
		t.Fatal("nothing peeled")
	}
	f := mod.Func("f")
	if f.NumBranches() != 0 {
		t.Errorf("loop not fully unrolled:\n%s", f)
	}
	if exec(t, mod, "f") != 10 {
		t.Error("wrong sum")
	}
}

func TestUnswitchHoistsInvariantBranch(t *testing.T) {
	// The branch on `mode` is loop-invariant; its arms call putch-like
	// side effects (stores to g), so if-conversion cannot remove it.
	src := `
	int g;
	int f(int mode, int n) {
		int i = 0;
		while (i < n) {
			if (mode) { g = g + 2; } else { g = g + 1; }
			i = i + 1;
		}
		return g;
	}`
	mod, cx := run(t, src,
		append(append([]passes.Pass{passes.Mem2Reg()}, cleanup()...),
			passes.Unswitch(), passes.Simplify(), passes.SimplifyCFG(), passes.DCE())...)
	if cx.Stats.LoopsUnswitched != 1 {
		t.Fatalf("unswitched %d loops, want 1", cx.Stats.LoopsUnswitched)
	}
	// Each exec uses a fresh machine, so g starts at 0: mode=1 adds 2
	// per iteration, mode=0 adds 1.
	if exec(t, mod, "f", i32(1), i32(3)) != 6 || exec(t, mod, "f", i32(0), i32(3)) != 3 {
		t.Error("wrong semantics after unswitching")
	}
}

func TestChecksInserted(t *testing.T) {
	src := `int f(int a, int b) { return a / b; }`
	mod, cx := run(t, src, passes.Mem2Reg(), passes.InsertChecks())
	if cx.Stats.ChecksInserted == 0 {
		t.Fatal("no checks inserted")
	}
	// The check must fire before the division traps.
	m := interp.NewMachine(mod, interp.Options{})
	_, err := m.Call("f", i32(1), i32(0))
	tr, ok := err.(*interp.Trap)
	if !ok || tr.Kind != interp.TrapCheckFailed {
		t.Errorf("err = %v, want check-failed trap", err)
	}
}

func TestAnnotateAttachesRanges(t *testing.T) {
	src := `int f(unsigned char *p) { return (int)p[0] % 10; }`
	mod, cx := run(t, src,
		append([]passes.Pass{passes.Mem2Reg()}, append(cleanup(), passes.Annotate())...)...)
	if cx.Stats.RangesAttached == 0 {
		t.Fatal("no ranges attached")
	}
	// The urem result must carry [0,9].
	found := false
	for _, b := range mod.Func("f").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpURem || in.Op == ir.OpSRem {
				if in.Meta != nil && in.Meta.Range != nil && in.Meta.Range.Hi <= 9 {
					found = true
				}
			}
		}
	}
	_ = found // the rem may fold; presence of any range suffices
}

func TestJumpThreadShortCircuit(t *testing.T) {
	// After mem2reg, the && lowering leaves a phi-of-constants branch
	// that jump threading must collapse.
	src := `int f(int a, int b) { if (a > 0 && b > 0) { return 1; } return 0; }`
	mod, cx := run(t, src,
		append(append([]passes.Pass{passes.Mem2Reg()}, cleanup()...),
			passes.JumpThread(), passes.SimplifyCFG(), passes.DCE())...)
	if cx.Stats.JumpsThreaded == 0 {
		t.Error("nothing threaded")
	}
	for _, tc := range []struct{ a, b, want int64 }{
		{1, 1, 1}, {1, 0, 0}, {0, 1, 0}, {0, 0, 0},
	} {
		if got := exec(t, mod, "f", i32(tc.a), i32(tc.b)); got != tc.want {
			t.Errorf("f(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLICMHoists(t *testing.T) {
	src := `
	int f(int a, int b, int n) {
		int s = 0;
		for (int i = 0; i < n; i++) {
			s = s + a * b;
		}
		return s;
	}`
	mod, cx := run(t, src,
		append(append([]passes.Pass{passes.Mem2Reg()}, cleanup()...), passes.LICM())...)
	if cx.Stats.InstrsHoisted == 0 {
		t.Error("a*b not hoisted")
	}
	if exec(t, mod, "f", i32(3), i32(4), i32(5)) != 60 {
		t.Error("wrong result")
	}
}

// TestPipelineIdempotent: running the OVerify pipeline twice must leave
// the module unchanged the second time (a fixpoint was reached).
func TestPipelineIdempotent(t *testing.T) {
	src := strings.ReplaceAll(`
	int helper(int c) { if (c > 10) { return c - 10; } return c; }
	int f(unsigned char *p, int n) {
		int s = 0;
		for (int i = 0; i < n; i++) { s += helper((int)p[0]); }
		return s;
	}`, "\t", " ")
	mod, err := frontend.Lower("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Optimize(mod, pipeline.LevelConfig(pipeline.OVerify)); err != nil {
		t.Fatal(err)
	}
	before := mod.Func("f").NumInstrs()
	if _, err := pipeline.Optimize(mod, pipeline.LevelConfig(pipeline.OVerify)); err != nil {
		t.Fatal(err)
	}
	after := mod.Func("f").NumInstrs()
	if after > before {
		t.Errorf("second pipeline run grew the function: %d -> %d", before, after)
	}
}

// TestInlineSkipsRecursion: a callee that can reach itself through the
// call graph is never inlined — neither a self-recursive one nor either
// of a mutually recursive pair — because inlining it copies a call round
// its cycle into the caller, and the next search finds that call again,
// until the growth cap stops it. The non-recursive callee still goes.
func TestInlineSkipsRecursion(t *testing.T) {
	src := `
	int odd(int d);
	int even(int d) { if (d == 0) { return 1; } return odd(d - 1); }
	int odd(int d) { if (d == 0) { return 0; } return even(d - 1); }
	int down(int d) { if (d == 0) { return 0; } return 1 + down(d - 1); }
	int sq(int x) { return x * x; }
	int f(int a) { return even(a) + down(a) + sq(a); }`
	mod, cx := run(t, src, passes.Inline())
	if cx.Stats.FunctionsInlined != 1 {
		t.Errorf("inlined %d call sites, want 1 (sq)", cx.Stats.FunctionsInlined)
	}
	calls := map[string]int{}
	for _, b := range mod.Func("f").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				calls[in.Callee.Name]++
			}
		}
	}
	if calls["even"] != 1 || calls["down"] != 1 || calls["sq"] != 0 || len(calls) != 2 {
		t.Errorf("f calls %v, want even and down once each", calls)
	}
	if got := exec(t, mod, "f", i32(5)); got != 0+5+25 {
		t.Errorf("f(5) = %d, want 30", got)
	}
	if got := exec(t, mod, "f", i32(4)); got != 1+4+16 {
		t.Errorf("f(4) = %d, want 21", got)
	}
}

// TestSimplifyFlagArithmeticIsSelect: each of simplify's flag rewrites,
// alone and chained as in the verified strrchr_, leaves one select and
// none of the arithmetic at -OVERIFY, and the negative cases keep their
// arithmetic. Every case computes what the unoptimized function does
// on all combinations of boundary inputs.
func TestSimplifyFlagArithmeticIsSelect(t *testing.T) {
	const sig = "int f(int x, int y, int a, int b) "
	for _, tc := range []struct {
		name, body string
		select1    bool // one select and no arithmetic, else arithmetic kept
	}{
		{"mul-zext", "{ return x * (a == b); }", true},
		{"zext-mul", "{ return (a == b) * x; }", true},
		{"sub-zext", "{ return 7 - (a < b); }", true},
		{"mul-select", "{ return (a < b ? 0 : 1) * x; }", true},
		{"select-mul", "{ return y * (a < b ? 1 : 0); }", true},
		{"add-selects", "{ return (a == b ? x : 0) + (a == b ? 0 : y); }", true},
		{"or-selects", "{ return (a == b ? 0 : x) | (a == b ? y : 0); }", true},
		{"strrchr-step", "{ int hit = a == b; return hit * x + (1 - hit) * y; }", true},
		{"mul-zext-i8", "{ return x * (int)(unsigned char)a; }", false},
		{"two-conditions", "{ return (a == b ? x : 0) + (a < b ? 0 : y); }", false},
		{"arm-outside-01", "{ return (a == b ? 2 : 0) * x; }", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := lower(t, sig+tc.body)
			mod := lower(t, sig+tc.body)
			if _, err := pipeline.Optimize(mod, pipeline.LevelConfig(pipeline.OVerify)); err != nil {
				t.Fatal(err)
			}
			f := mod.Func("f")
			selects, arith := 0, 0
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					switch in.Op {
					case ir.OpSelect:
						selects++
					case ir.OpMul, ir.OpSub, ir.OpAdd, ir.OpOr, ir.OpZExt:
						arith++
					}
				}
			}
			if tc.select1 && (selects != 1 || arith != 0) {
				t.Errorf("want one select and no arithmetic, got %d selects and %d arithmetic instructions:\n%s", selects, arith, f)
			}
			if !tc.select1 && arith == 0 {
				t.Errorf("the arithmetic was rewritten:\n%s", f)
			}
			edges := []int64{0, 1, -1, math.MinInt32, math.MaxInt32}
			for _, x := range edges {
				for _, y := range edges {
					for _, a := range edges {
						for _, b := range edges {
							args := []interp.Value{i32(x), i32(y), i32(a), i32(b)}
							if got, want := exec(t, mod, "f", args...), exec(t, ref, "f", args...); got != want {
								t.Fatalf("f(%d, %d, %d, %d) = %d, -O0 computes %d", x, y, a, b, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestSimplifyAtFixpointAllocatesNothing: simplify over every corpus
// function after the -OVERIFY pipeline, where no rule fires any more,
// allocates nothing — the flag rewrites cost a visited instruction no
// allocation unless they fire.
func TestSimplifyAtFixpointAllocatesNothing(t *testing.T) {
	simplify := passes.Simplify().(passes.FunctionPass)
	cx := &passes.Context{Cost: pipeline.VerifyCost()}
	for _, p := range coreutils.All() {
		c, err := core.CompileProgram(p, pipeline.OVerify)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range c.Mod.Funcs {
			if f.IsDeclaration() {
				continue
			}
			simplify.RunOnFunc(f, cx) // settle what the later passes exposed
			if allocs := testing.AllocsPerRun(5, func() {
				if simplify.RunOnFunc(f, cx) {
					t.Fatalf("%s @%s: simplify is not at its fixpoint", p.Name, f.Name)
				}
			}); allocs != 0 {
				t.Errorf("%s @%s: simplify allocated %.0f times with nothing to fold", p.Name, f.Name, allocs)
			}
		}
	}
}
