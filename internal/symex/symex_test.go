package symex_test

import (
	"testing"

	"overify/internal/frontend"
	"overify/internal/ir"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

const wcSrc = `
int isspace(int c) {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == 11 || c == 12;
}
int isalpha(int c) {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
int wc(unsigned char *str, int any) {
	int res = 0;
	int new_word = 1;
	for (unsigned char *p = str; *p; ++p) {
		if (isspace(*p) || (any && !isalpha(*p))) {
			new_word = 1;
		} else {
			if (new_word) {
				++res;
				new_word = 0;
			}
		}
	}
	return res;
}
`

// exploreWc runs exhaustive symbolic execution of wc over strings of up
// to n bytes with a symbolic `any` flag, at the given level.
func exploreWc(t *testing.T, level pipeline.Level, n int) *symex.Report {
	t.Helper()
	mod, err := frontend.Lower("wc", wcSrc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if _, err := pipeline.Optimize(mod, pipeline.LevelConfig(level)); err != nil {
		t.Fatalf("optimize %s: %v", level, err)
	}
	eng := symex.NewEngine(mod, symex.Options{})
	buf := eng.SymbolicBuffer("input", n, true)
	any := eng.SymbolicInt("any", ir.I32)
	rep, err := eng.Run("wc", []symex.SymVal{buf, any}, nil)
	if err != nil {
		t.Fatalf("symex %s: %v", level, err)
	}
	return rep
}

func TestWcSymexSmall(t *testing.T) {
	// 3 symbolic bytes: small enough to explore exhaustively at -O0.
	paths := map[pipeline.Level]int64{}
	for _, level := range []pipeline.Level{pipeline.O0, pipeline.O2, pipeline.O3, pipeline.OVerify} {
		rep := exploreWc(t, level, 3)
		if rep.Stats.TimedOut || rep.Stats.TruncatedPaths > 0 {
			t.Fatalf("%s: exploration truncated: %+v", level, rep.Stats)
		}
		if len(rep.Bugs) != 0 {
			t.Errorf("%s: unexpected bugs: %v", level, rep.Bugs)
		}
		paths[level] = rep.Stats.Paths
		t.Logf("%s: paths=%d instrs=%d queries=%d cacheHits=%d",
			level, rep.Stats.Paths, rep.Stats.Instrs,
			rep.Stats.SolverStats.Queries, rep.Stats.SolverStats.CacheHits)
	}
	// Table 1 shape: O0 >= O2 >= O3 > OVerify; OVerify = n+1 paths
	// (one per possible NUL position: the `any` flag folds into selects).
	if paths[pipeline.OVerify] != 4 {
		t.Errorf("OVerify paths = %d, want 4 (= n+1)", paths[pipeline.OVerify])
	}
	if paths[pipeline.O3] <= paths[pipeline.OVerify] {
		t.Errorf("O3 (%d) should explore more paths than OVerify (%d)",
			paths[pipeline.O3], paths[pipeline.OVerify])
	}
	if paths[pipeline.O0] < paths[pipeline.O3] {
		t.Errorf("O0 (%d) should explore at least as many paths as O3 (%d)",
			paths[pipeline.O0], paths[pipeline.O3])
	}
	if paths[pipeline.O0] != paths[pipeline.O2] {
		t.Errorf("O0 (%d) and O2 (%d) should explore the same paths (same CFG structure)",
			paths[pipeline.O0], paths[pipeline.O2])
	}
}

func TestWcSymexTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 10-byte exploration in -short mode")
	}
	// The paper's Table 1 setting: strings up to 10 bytes. Only the
	// cheap levels are explored here; -O0/-O2 are exercised by the
	// benchmark harness with explicit time budgets.
	rep := exploreWc(t, pipeline.OVerify, 10)
	if rep.Stats.Paths != 11 {
		t.Errorf("OVerify paths = %d, want 11 (Table 1)", rep.Stats.Paths)
	}
	if len(rep.Bugs) != 0 {
		t.Errorf("unexpected bugs: %v", rep.Bugs)
	}
}
