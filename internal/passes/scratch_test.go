package passes

import (
	"slices"
	"testing"

	"overify/internal/coreutils"
	"overify/internal/frontend"
	"overify/internal/ir"
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
	cx := &Context{Cost: cost}
	cx.EnableAnalysisCache()
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

// TestUseTableEmptyAfterEveryFunction: the use table if-conversion
// prices its sites with lists, when filled, exactly the users of every
// instruction, and is empty again once the pass leaves the function, so
// no users carry over to the next function (whose SSA ids index the
// same arrays), over every corpus function at -OVERIFY's cost.
func TestUseTableEmptyAfterEveryFunction(t *testing.T) {
	libFile, err := libc.Parse(libc.Verified)
	if err != nil {
		t.Fatal(err)
	}
	cost := CostModel{SpeculationBudget: 400, KeepDeferredForks: true,
		InlineThreshold: 200, InlineGrowthCap: 2000, InlineRounds: 4}
	cx := &Context{Cost: cost}
	cx.EnableAnalysisCache()
	defer cx.Release()
	s := cx.scratch()
	listed := 0
	for _, p := range coreutils.All() {
		progFile, err := lang.Parse(p.Src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := frontend.LowerFiles(p.Name, libFile, progFile)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []Pass{Inline(), Mem2Reg(), Simplify(), SimplifyCFG()} {
			pass.Run(m, cx)
		}
		for _, f := range m.Funcs {
			if f.IsDeclaration() {
				continue
			}
			want := map[*ir.Instr]int{}
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if n := len(s.usersOf(in)); n != 0 {
						t.Fatalf("%s @%s: %s has %d users left from another function", p.Name, f.Name, in, n)
					}
					for _, v := range in.Args {
						if d, ok := v.(*ir.Instr); ok {
							want[d]++
						}
					}
				}
			}
			s.fillUses(f)
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					users := s.usersOf(in)
					if len(users) != want[in] {
						t.Fatalf("%s @%s: %s lists %d users, has %d", p.Name, f.Name, in, len(users), want[in])
					}
					for _, u := range users {
						if !slices.Contains(u.Args, ir.Value(in)) {
							t.Fatalf("%s @%s: %s lists %s, which does not use it", p.Name, f.Name, in, u)
						}
					}
					listed += len(users)
				}
			}
			s.dropUses()
			ifConvertFunc(f, cx)
			if len(s.useOff) != 0 || slices.ContainsFunc(s.users[:cap(s.users)], func(u *ir.Instr) bool { return u != nil }) {
				t.Fatalf("%s @%s: ifconvert left its use table filled", p.Name, f.Name)
			}
		}
	}
	if listed == 0 {
		t.Fatal("no function listed a user: the check saw nothing")
	}
}
