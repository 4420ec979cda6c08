package symex

import (
	"testing"

	"overify/internal/ir"
)

// mkState builds a bare state positioned at block b (enough for the
// strategies: they read ID, Forks and the top frame's block).
func mkState(id int64, b *ir.Block) *State {
	return &State{ID: id, Frames: []*Frame{{Block: b}}}
}

// TestParseSearchRoundTrip: every built-in kind parses from its own
// String spelling.
func TestParseSearchRoundTrip(t *testing.T) {
	for _, k := range Strategies() {
		got, err := ParseSearch(k.String())
		if err != nil || got != k {
			t.Errorf("ParseSearch(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseSearch("bogo"); err == nil {
		t.Error("ParseSearch accepted an unknown strategy")
	}
}

// TestStealFollowsStrategyOrder is the regression for the steal path:
// the old frontier always stole slot 0 of the victim shard, ignoring
// the strategy's priority. With the coverage-weighted strategy, a thief
// must receive the victim's *best* state — the one whose next block is
// still uncovered — not whatever happens to sit first.
func TestStealFollowsStrategyOrder(t *testing.T) {
	hot := &ir.Block{Name: "hot"}
	cold := &ir.Block{Name: "cold"}
	cov := newCoverage()
	cov.cover(hot)

	strat := newStrategy(CovNew, 2, cov)
	f := newFrontier(2, strat, 0)
	// Shard 0: two already-covered ("hot") states first, the state
	// opening uncovered territory last — slot 0 is the wrong answer.
	f.put(0, []*State{mkState(1, hot), mkState(2, hot), mkState(3, cold)})

	got := f.take(1, never)
	if got == nil || got.ID != 3 {
		t.Fatalf("thief stole state %v, want ID 3 (the uncovered-block state)", got)
	}
}

// TestCovnewPrefersUncovered: Select returns states scored by uncovered
// territory, and NotifyCovered demotes states lazily once their target
// is covered.
func TestCovnewPrefersUncovered(t *testing.T) {
	a := &ir.Block{Name: "a"}
	b := &ir.Block{Name: "b"}
	cov := newCoverage()
	strat := newStrategy(CovNew, 1, cov)

	strat.Insert(0, []*State{mkState(1, a), mkState(2, b)})
	cov.cover(a) // a's state goes stale...
	strat.NotifyCovered(a)

	if st := strat.Select(0); st == nil || st.ID != 2 {
		t.Fatalf("Select = %v, want ID 2 (block b is uncovered)", st)
	}
	if st := strat.Select(0); st == nil || st.ID != 1 {
		t.Fatalf("Select = %v, want ID 1", st)
	}
	if st := strat.Select(0); st != nil {
		t.Fatalf("Select on empty shard = %v, want nil", st)
	}
}

// TestStrategyEvict: eviction removes exactly one state from the
// fullest shard for every strategy, and covnew evicts its
// worst-scoring state, not its best.
func TestStrategyEvict(t *testing.T) {
	hot := &ir.Block{Name: "hot"}
	cold := &ir.Block{Name: "cold"}
	for _, kind := range Strategies() {
		cov := newCoverage()
		cov.cover(hot)
		strat := newStrategy(kind, 2, cov)
		strat.Insert(0, []*State{mkState(1, hot)})
		strat.Insert(1, []*State{mkState(2, cold), mkState(3, hot), mkState(4, hot)})
		ev := strat.Evict()
		if ev == nil {
			t.Fatalf("%s: Evict returned nil with pending states", kind)
		}
		if strat.Len(0)+strat.Len(1) != 3 {
			t.Errorf("%s: Evict removed %d states, want 1", kind, 4-strat.Len(0)-strat.Len(1))
		}
		if strat.Len(1) != 2 {
			t.Errorf("%s: Evict took from shard with %d states, want the fullest", kind, 1)
		}
		if kind == CovNew && ev.ID == 2 {
			t.Errorf("covnew evicted the uncovered-block state (its best)")
		}
	}
}

// TestCoverageMap: cover is idempotent, covered reflects it, count
// tracks distinct blocks.
func TestCoverageMap(t *testing.T) {
	cov := newCoverage()
	a, b := &ir.Block{Name: "a"}, &ir.Block{Name: "b"}
	if cov.covered(a) {
		t.Error("fresh map claims coverage")
	}
	if !cov.cover(a) {
		t.Error("first cover not reported as new")
	}
	if cov.cover(a) {
		t.Error("second cover reported as new")
	}
	cov.cover(b)
	if !cov.covered(a) || !cov.covered(b) || cov.count() != 2 {
		t.Errorf("covered=%v/%v count=%d, want true/true 2", cov.covered(a), cov.covered(b), cov.count())
	}
}

// checkCovHeaps validates the heap invariant over the cached ordering
// fields for every shard of a covnew strategy.
func checkCovHeaps(t *testing.T, c *covnewStrategy) {
	t.Helper()
	for s, h := range c.heaps {
		for i := range h {
			for _, child := range []int{2*i + 1, 2*i + 2} {
				if child < len(h) && covBefore(h[child], h[i]) {
					t.Fatalf("shard %d: heap invariant broken at parent %d / child %d", s, i, child)
				}
			}
		}
	}
}
