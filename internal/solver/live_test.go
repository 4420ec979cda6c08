package solver

import (
	"slices"
	"testing"

	"overify/internal/expr"
)

// liveRef is the live set by its definition, over the expression DAG
// under expr.PartialEvaluator semantics: nothing for a node the
// evaluator knows, the variable itself for an unassigned one, the chosen
// arm's for a select whose condition it knows, and otherwise the union
// of the operands'. Bits are indexes into vars.
func liveRef(pe *expr.PartialEvaluator, vars []*expr.Var, memo map[*expr.Expr]uint64, e *expr.Expr) uint64 {
	if lv, ok := memo[e]; ok {
		return lv
	}
	var lv uint64
	switch {
	case pe.Eval(e).Known:
	case e.Kind == expr.KVar:
		lv = 1 << uint(slices.Index(vars, e.V))
	case e.Kind == expr.KSelect && pe.Eval(e.Args[0]).Known:
		if pe.Eval(e.Args[0]).Val != 0 {
			lv = liveRef(pe, vars, memo, e.Args[1])
		} else {
			lv = liveRef(pe, vars, memo, e.Args[2])
		}
	default:
		for _, a := range e.Args {
			lv |= liveRef(pe, vars, memo, a)
		}
	}
	memo[e] = lv
	return lv
}

// TestLiveSetMatchesReference holds the tape's live sets, which the
// unary filter's test reads, to their definition: under every
// assignment of a subset of a group's variables (values drawn from the
// seed), reached by assigning the subset and again by assigning every
// variable and retracting the rest, each constraint root's live set must
// equal liveRef's, and lie within the variables the constraint mentions
// less the assigned ones — the static test it replaces. The groups are
// the fuzz DAGs' and wc's; one of more than 64 variables would keep no
// live sets and be skipped. Some assignment must leave an open root
// reading fewer unassigned variables than it mentions, or the groups no
// longer exercise a decided select or short circuit.
func TestLiveSetMatchesReference(t *testing.T) {
	tracked, narrower := 0, 0
	check := func(t *testing.T, g *Group, seed uint64, label string) {
		tp := compileGroup(g)
		if !tp.tracksLive {
			return
		}
		tracked++
		val := func(vi int) uint64 { return (seed >> uint(8*vi%57)) & 0xff }
		for mask := 0; mask < 1<<len(tp.vars); mask++ {
			asn := make(map[*expr.Var]uint64)
			byAssign, byRetract := newTapeState(tp), newTapeState(tp)
			for vi, v := range tp.vars {
				byRetract.assign(int32(vi), val(vi))
				if mask&(1<<vi) != 0 {
					asn[v] = val(vi)
					byAssign.assign(int32(vi), val(vi))
				}
			}
			for vi := range tp.vars {
				if mask&(1<<vi) == 0 {
					byRetract.unassign(int32(vi))
				}
			}
			pe := expr.NewPartialEvaluator(asn)
			memo := make(map[*expr.Expr]uint64)
			for ci, c := range g.Constraints() {
				want := liveRef(pe, tp.vars, memo, c)
				static := tp.cmasks[ci][0] &^ byAssign.amask[0]
				for _, ts := range []*tapeState{byAssign, byRetract} {
					got := ts.rootLive(ci)
					if got != want {
						t.Errorf("%s mask %b: constraint %d: live set %b, reference %b (%s)", label, mask, ci, got, want, c)
					}
					if got&^static != 0 {
						t.Errorf("%s mask %b: constraint %d: live set %b outside the unassigned variables it mentions, %b", label, mask, ci, got, static)
					}
				}
				if want != 0 && want != static {
					narrower++
				}
			}
		}
	}
	t.Run("fuzzdag", func(t *testing.T) {
		fuzzDAGGroupsOf(func(g *Group, seed uint64, label string) { check(t, g, seed, label) })
	})
	t.Run("wc", func(t *testing.T) {
		wcGroupsOf(t, func(g *Group, seed uint64, label string) { check(t, g, seed, label) })
	})
	t.Logf("%d groups keep live sets; %d open constraint roots read fewer variables than they mention", tracked, narrower)
	if narrower == 0 {
		t.Errorf("no live set was narrower than the static one over %d groups", tracked)
	}
}
