package symex_test

import (
	"testing"

	"overify/internal/core"
	"overify/internal/frontend"
	"overify/internal/ir"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// explore compiles src (no libc) and explores fn with an n-byte buffer.
func explore(t *testing.T, src, fn string, n int, opts symex.Options,
	level pipeline.Level) *symex.Report {
	t.Helper()
	mod, err := frontend.Lower("t", src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if _, err := pipeline.Optimize(mod, pipeline.LevelConfig(level)); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	eng := symex.NewEngine(mod, opts)
	buf := eng.SymbolicBuffer("input", n, true)
	rep, err := eng.Run(fn, []symex.SymVal{buf, eng.IntArg(ir.I32, uint64(n))}, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rep
}

const branchySrc = `
int f(unsigned char *in, int n) {
	int count = 0;
	int i = 0;
	while (in[i] != 0) {
		if (in[i] == 'x') { count = count + 1; }
		i = i + 1;
	}
	return count;
}`

// TestPathCountExact: each of the n bytes is 0 / 'x' / other, the NUL
// cuts the string: for n=3 the path count is known exactly.
func TestPathCountExact(t *testing.T) {
	rep := explore(t, branchySrc, "f", 3, symex.Options{}, pipeline.O0)
	// Strings over {'x', other}: position of first NUL in {0,1,2,3}
	// gives 1 + 2 + 4 + 8 = 15 paths.
	if rep.Stats.Paths != 15 {
		t.Errorf("paths = %d, want 15", rep.Stats.Paths)
	}
	if len(rep.Bugs) != 0 {
		t.Errorf("unexpected bugs: %v", rep.Bugs)
	}
}

// TestMaxInstrsTruncation: the MaxInstrs limit stops exploration early
// and reports the truncation: n=6 has 127 paths, far more instructions
// than the budget.
func TestMaxInstrsTruncation(t *testing.T) {
	rep := explore(t, branchySrc, "f", 6, symex.Options{MaxInstrs: 2000}, pipeline.O0)
	if rep.Stats.TotalPaths() == 0 || rep.Stats.Paths >= 127 {
		t.Errorf("completed %d of %d paths, expected the budget to stop the run partway", rep.Stats.Paths, rep.Stats.TotalPaths())
	}
	if rep.Stats.TruncatedPaths == 0 || !rep.Stats.TimedOut {
		t.Errorf("expected truncated paths and a timed-out run to be reported: %+v", rep.Stats)
	}
}

// TestSymbolicWriteReadBack: a store at a symbolic index followed by a
// read at another symbolic index must see the ite-merged memory.
func TestSymbolicWriteReadBack(t *testing.T) {
	src := `
	int f(unsigned char *in, int n) {
		unsigned char buf[4];
		buf[0] = 0; buf[1] = 0; buf[2] = 0; buf[3] = 0;
		int i = (int)in[0] % 4;
		buf[i] = 7;
		int j = (int)in[1] % 4;
		if (buf[j] == 7) {
			// Only feasible when i == j.
			assert(i == j);
			return 1;
		}
		return 0;
	}`
	rep := explore(t, src, "f", 2, symex.Options{}, pipeline.OVerify)
	// The assert must hold on every feasible path: no bugs.
	if len(rep.Bugs) != 0 {
		t.Errorf("assert violated: %v", rep.Bugs)
	}
	if rep.Stats.Paths == 0 {
		t.Error("no paths explored")
	}
}

// TestInfeasiblePathsPruned: contradictory branches must not fork.
func TestInfeasiblePathsPruned(t *testing.T) {
	src := `
	int f(unsigned char *in, int n) {
		int c = (int)in[0];
		if (c > 100) {
			if (c < 50) {
				return 99; // unreachable
			}
			return 1;
		}
		return 0;
	}`
	rep := explore(t, src, "f", 1, symex.Options{}, pipeline.O0)
	// Reachable outcomes: c in (100,255] -> 1, c <= 100 -> 0. The dead
	// branch must not contribute a path.
	if rep.Stats.Paths != 2 {
		t.Errorf("paths = %d, want 2 (the 99-return is infeasible)", rep.Stats.Paths)
	}
}

// TestBugDeduplication: a bug site triggered on many paths is reported
// once.
func TestBugDeduplication(t *testing.T) {
	src := `
	int f(unsigned char *in, int n) {
		int i = 0;
		int acc = 0;
		while (in[i] != 0) {
			acc = acc + 100 / ((int)in[i] - 'z');  // crashes when byte == 'z'
			i = i + 1;
		}
		return acc;
	}`
	rep := explore(t, src, "f", 3, symex.Options{}, pipeline.O0)
	if len(rep.Bugs) != 1 {
		t.Errorf("got %d bug reports, want 1 deduplicated", len(rep.Bugs))
	}
	if rep.Stats.ErrorPaths == 0 {
		t.Error("error paths not counted")
	}
}

// TestCoverageSymbolicInt: the SymbolicInt helper drives non-buffer
// arguments (wc's `any` flag).
func TestCoverageSymbolicInt(t *testing.T) {
	src := `
	int f(unsigned char *in, int flag) {
		if (flag != 0) { return 2; }
		return 1;
	}`
	mod, err := frontend.Lower("t", src)
	if err != nil {
		t.Fatal(err)
	}
	eng := symex.NewEngine(mod, symex.Options{})
	buf := eng.SymbolicBuffer("input", 1, true)
	flag := eng.SymbolicInt("flag", ir.I32)
	rep, err := eng.Run("f", []symex.SymVal{buf, flag}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Paths != 2 {
		t.Errorf("paths = %d, want 2 (flag zero / nonzero)", rep.Stats.Paths)
	}
}

// TestVerifyOptionsDefaultBytes: core.Verify defaults the input size.
func TestVerifyOptionsDefaultBytes(t *testing.T) {
	c, err := core.CompileSource("cat", `
int umain(unsigned char *input, int len) {
	int i = 0;
	while (input[i] != 0) { i = i + 1; }
	return i;
}`, pipeline.OVerify, core.DefaultLibc(pipeline.OVerify))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Verify("umain", core.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Paths != 5 {
		t.Errorf("paths = %d, want 5 (default 4 bytes + NUL positions)", rep.Stats.Paths)
	}
}
