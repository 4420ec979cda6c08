package pipeline_test

import (
	"testing"

	"overify/internal/frontend"
	"overify/internal/interp"
	"overify/internal/ir"
	"overify/internal/pipeline"
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

func optimizedWc(t *testing.T, level pipeline.Level) *ir.Module {
	t.Helper()
	mod, err := frontend.Lower("wc", wcSrc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	cfg := pipeline.LevelConfig(level)
	cfg.VerifyEachPass = true
	if _, err := pipeline.Optimize(mod, cfg); err != nil {
		t.Fatalf("%s: %v", level, err)
	}
	return mod
}

func runWcOn(t *testing.T, mod *ir.Module, input string, any int64) int64 {
	t.Helper()
	m := interp.NewMachine(mod, interp.Options{})
	buf := interp.ByteObject("input", append([]byte(input), 0))
	ret, err := m.Call("wc", interp.PtrVal(buf, 0), interp.IntVal(ir.I32, uint64(any)))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return ir.SignExtend(32, ret.Bits)
}

var wcCases = []struct {
	in   string
	any  int64
	want int64
}{
	{"", 0, 0},
	{"hello", 0, 1},
	{"hello world", 0, 2},
	{"  a  b  ", 0, 2},
	{"tab\tsep\nlines", 0, 3},
	{"a,b,c", 0, 1},
	{"a,b,c", 1, 3},
	{"x1y2z", 1, 3},
	{"...", 1, 0},
	{"word", 1, 1},
	{" \t\n", 0, 0},
	{"mixed CASE words", 0, 3},
}

// TestWcSemanticsAcrossLevels is the §2.3 equivalence check: the same
// program must behave identically at every optimization level.
func TestWcSemanticsAcrossLevels(t *testing.T) {
	for _, level := range []pipeline.Level{
		pipeline.O0, pipeline.O1, pipeline.O2, pipeline.O3, pipeline.OVerify,
	} {
		mod := optimizedWc(t, level)
		for _, tt := range wcCases {
			if got := runWcOn(t, mod, tt.in, tt.any); got != tt.want {
				t.Errorf("%s: wc(%q, %d) = %d, want %d", level, tt.in, tt.any, got, tt.want)
			}
		}
	}
}

// TestWcBranchReduction checks the structural claim behind Table 1: each
// level strictly reduces the number of conditional branches in wc, and
// -OVERIFY leaves only the loop back-edge test (Listing 2: "completely
// removes all branches from the loop").
func TestWcBranchReduction(t *testing.T) {
	branches := map[pipeline.Level]int{}
	for _, level := range []pipeline.Level{
		pipeline.O0, pipeline.O2, pipeline.O3, pipeline.OVerify,
	} {
		mod := optimizedWc(t, level)
		branches[level] = mod.Func("wc").NumBranches()
		t.Logf("%s: %d conditional branches in wc", level, branches[level])
	}
	// Note: -O2/-O3 may have *more* static branches inside wc than -O0
	// because inlining copies the callees' branches in; what shrinks is
	// the dynamic per-path work. The structural claims tested here are
	// the -OVERIFY ones.
	if !(branches[pipeline.O3] > branches[pipeline.OVerify]) {
		t.Errorf("expected -OVERIFY (%d) to have fewer branches than -O3 (%d)",
			branches[pipeline.OVerify], branches[pipeline.O3])
	}
	// The paper's Listing 2: only the loop-header branch remains.
	if branches[pipeline.OVerify] > 1 {
		t.Errorf("-OVERIFY left %d conditional branches in wc, want <= 1 (the loop header only)",
			branches[pipeline.OVerify])
	}
}

// TestPipelineStats sanity-checks the Table 3 counters.
func TestPipelineStats(t *testing.T) {
	mod, err := frontend.Lower("wc", wcSrc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	cfg := pipeline.LevelConfig(pipeline.OVerify)
	cfg.VerifyEachPass = true
	res, err := pipeline.Optimize(mod, cfg)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if res.Stats.FunctionsInlined < 2 {
		t.Errorf("FunctionsInlined = %d, want >= 2 (isspace and isalpha)", res.Stats.FunctionsInlined)
	}
	// The `any` branch is eliminated by if-conversion (Listing 2), which
	// is strictly better than unswitching it: no loop duplication, and a
	// single loop copy handles both values symbolically.
	if res.Stats.BranchesConverted < 3 {
		t.Errorf("BranchesConverted = %d, want >= 3", res.Stats.BranchesConverted)
	}
	if res.Stats.AllocasPromoted == 0 {
		t.Error("AllocasPromoted = 0, mem2reg did nothing")
	}
}
