package solver

import (
	"fmt"
	"slices"
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

// sweptState is the reference the reader walk is held to: a fresh state
// over tp with the given assignment in place before its one full
// topo-ordered sweep, every slot evaluated and every live set rebuilt.
func sweptState(tp *tape, assigned []bool, avals []uint64) *tapeState {
	ref := newTapeState(tp)
	copy(ref.assigned, assigned)
	copy(ref.avals, avals)
	for vi, a := range assigned {
		if a {
			ref.amask[vi/64] |= 1 << uint(vi%64)
		}
	}
	for s := range tp.ops {
		ref.recompute(int32(s))
		if tp.tracksLive {
			ref.relive(int32(s))
		}
	}
	return ref
}

// TestIncrementalRecomputeMatchesFullSweep holds assign and unassign,
// which re-evaluate only the slots a binding changes (tapeState.rewalk),
// to the full sweep: on the fuzz DAG groups, basename's last-slash
// groups, the wc stream's and a group holding two nodes of one
// variable, seeded step sequences run in the DFS's
// pattern — several sibling values of one byte bound over one another,
// with a nested descent two to four bytes deep under some of them, then
// one unassign — and after every step every slot's known flag and value
// equal a fresh state swept under the same assignment, every live set
// does once freshened, and the dirty set is empty. Some step must
// evaluate fewer slots than the byte's watch list holds, or the groups
// no longer exercise a skip.
func TestIncrementalRecomputeMatchesFullSweep(t *testing.T) {
	var steps, evals, watched int64
	check := func(t *testing.T, tp *tape, seed uint64, label string) {
		rng := seed | 1
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		ts := newTapeState(tp)
		failed := false
		verify := func(what string) {
			steps++
			if failed {
				return
			}
			ref := sweptState(tp, ts.assigned, ts.avals)
			for s := range tp.ops {
				if ts.known[s] != ref.known[s] || ts.val[s] != ref.val[s] {
					t.Errorf("%s after %s: slot %d (%v,%d), full sweep (%v,%d)", label, what, s, ts.known[s], ts.val[s], ref.known[s], ref.val[s])
					failed = true
					return
				}
			}
			if tp.tracksLive {
				ts.freshen()
				for s := range tp.ops {
					if ts.live[s] != ref.live[s] {
						t.Errorf("%s after %s: slot %d live %b, full sweep %b", label, what, s, ts.live[s], ref.live[s])
						failed = true
						return
					}
				}
			}
			if i := slices.IndexFunc(ts.dirty, func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Errorf("%s after %s: dirty word %d is %x", label, what, i, ts.dirty[i])
				failed = true
			}
		}
		var descend func(depth, maxDepth int)
		descend = func(depth, maxDepth int) {
			var open []int32
			for vi := range tp.vars {
				if !ts.assigned[vi] {
					open = append(open, int32(vi))
				}
			}
			if len(open) == 0 {
				return
			}
			vi := open[next(len(open))]
			for k, n := 0, 2+next(4); k < n; k++ {
				v := uint64(next(256))
				before := ts.evals
				ts.assign(vi, v)
				evals += ts.evals - before
				watched += int64(len(tp.watch[vi]))
				verify(fmt.Sprintf("assign %d=%d", vi, v))
				if depth < maxDepth && next(2) == 0 {
					descend(depth+1, maxDepth)
				}
			}
			ts.unassign(vi)
			verify(fmt.Sprintf("unassign %d", vi))
		}
		for round := 0; round < 3; round++ {
			descend(1, 2+next(3))
		}
	}
	t.Run("lastslash", func(t *testing.T) {
		for i, tp := range lastSlashGroups() {
			check(t, tp, uint64(i)+7, fmt.Sprintf("group %d", i))
		}
	})
	t.Run("twovarnodes", func(t *testing.T) {
		// Two nodes of one variable, as a group not built through one
		// builder has: a binding must reach what reads either.
		x := &expr.Var{Name: "x", Bits: 8, Idx: 0}
		y := &expr.Var{Name: "y", Bits: 8, Idx: 1}
		x1 := &expr.Expr{Kind: expr.KVar, Bits: 8, V: x}
		x2 := &expr.Expr{Kind: expr.KVar, Bits: 8, V: x}
		yn := &expr.Expr{Kind: expr.KVar, Bits: 8, V: y}
		cs := []*expr.Expr{
			lit(expr.KCmp, ir.OpULt, 1, lit(expr.KBin, ir.OpAdd, 8, x1, yn), litConst(8, 200)),
			lit(expr.KCmp, ir.OpNe, 1, lit(expr.KBin, ir.OpMul, 8, x2, litConst(8, 3)), litConst(8, 9)),
		}
		tp := (&tapeScratch{}).compile(lit(expr.KBin, ir.OpAdd, 8, x1, yn).VarSet(), cs)
		for seed := uint64(1); seed <= 20; seed++ {
			check(t, tp, seed, fmt.Sprintf("seed %d", seed))
		}
	})
	t.Run("fuzzdag", func(t *testing.T) {
		fuzzDAGGroups(func(tp *tape, seed uint64, label string) { check(t, tp, seed, label) })
	})
	t.Run("wc", func(t *testing.T) {
		wcGroups(t, func(tp *tape, seed uint64, label string) { check(t, tp, seed, label) })
	})
	t.Logf("%d steps; sibling assigns evaluated %d slots against %d in the bytes' watch lists", steps, evals, watched)
	if evals >= watched {
		t.Errorf("sibling assigns evaluated %d slots, their watch lists hold %d: nothing was skipped", evals, watched)
	}
}

// TestSiblingSweepIsIncremental pins what the reader walk buys on
// basename's shape (slashChainGroup): binding the first byte to a value
// over another, neither of them '/', evaluates the byte's slot and its
// compare and nothing of the chain behind it, however long the chain.
// Driven through the search, which binds all 256 values, the chain is
// evaluated a fixed number of times a search, not once a value:
// lengthening it by 192 steps costs at most four evaluations of each
// added slot. Re-evaluating the watch list costs every slot of it on
// every value.
func TestSiblingSweepIsIncremental(t *testing.T) {
	const short, long = 64, 256
	searchEvals := map[int]int64{}
	for _, steps := range []int{short, long} {
		g := PartitionOf(slashChainGroup(expr.NewBuilder(), steps)).Groups()
		if len(g) != 1 || len(g[0].vs.Vars()) != 2 {
			t.Fatalf("steps=%d: want one two-variable group", steps)
		}
		tp := compileGroup(g[0])
		ts := newTapeState(tp)
		for v := uint64(0); v < 256; v++ {
			before := ts.evals
			ts.assign(0, v)
			if n := ts.evals - before; v > 0 && v != '/' && v-1 != '/' && n > 2 {
				t.Errorf("steps=%d: binding x=%d over %d evaluated %d slots, want the byte's and its compare's (the watch list holds %d)",
					steps, v, v-1, n, len(tp.watch[0]))
			}
		}

		s := New(Options{})
		e, err := s.search(g[0])
		if err != nil || e.sat {
			t.Fatalf("steps=%d: sat=%v err=%v, want unsat", steps, e.sat, err)
		}
		if s.Stats.Assignments < 256 {
			t.Fatalf("steps=%d: the search tried %d assignments, want every value of x bound", steps, s.Stats.Assignments)
		}
		searchEvals[steps] = s.commitEvals
		t.Logf("steps=%d: %d slots, %d assignments, %d slots evaluated by assign/unassign", steps, len(tp.ops), s.Stats.Assignments, s.commitEvals)
	}
	if grew := searchEvals[long] - searchEvals[short]; grew > 4*2*(long-short) {
		t.Errorf("a search over a chain %d steps longer evaluated %d more slots, want at most %d", long-short, grew, 4*2*(long-short))
	}
}
