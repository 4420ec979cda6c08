package passes

import (
	"testing"

	"overify/internal/coreutils"
	"overify/internal/frontend"
	"overify/internal/lang"
	"overify/internal/libc"
)

// TestCSETableEmptyAfterEveryFunction: the scoped table one context
// hands to every function's CSE walk is empty, and its insertion log
// holds nothing, whenever a walk has returned, over every corpus
// function after the cleanup that exposes its redundancy (inlining,
// promotion, simplification). A key left behind would make the next
// function replace an instruction by one of another function.
func TestCSETableEmptyAfterEveryFunction(t *testing.T) {
	libFile, err := libc.Parse(libc.Verified)
	if err != nil {
		t.Fatal(err)
	}
	cost := CostModel{InlineThreshold: 200, InlineGrowthCap: 2000, InlineRounds: 4}
	cx := NewContext(cost)
	defer cx.Release()
	walks, replaced := 0, 0
	for _, p := range coreutils.All() {
		progFile, err := lang.Parse(p.Src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := frontend.LowerFiles(p.Name, libFile, progFile)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []Pass{Inline(), Mem2Reg(), Simplify()} {
			pass.Run(m, cx)
		}
		for _, f := range m.Funcs {
			if f.IsDeclaration() {
				continue
			}
			before := cx.Stats.InstrsCSEd
			cseFunc(f, cx)
			walks++
			replaced += cx.Stats.InstrsCSEd - before
			s := cx.scratch()
			if len(s.cse) != 0 || len(s.cseLog) != 0 {
				t.Fatalf("%s @%s: CSE left %d keys and %d logged instructions", p.Name, f.Name, len(s.cse), len(s.cseLog))
			}
		}
	}
	if replaced == 0 {
		t.Fatalf("%d walks replaced nothing: the check never saw a non-trivial walk", walks)
	}
}
